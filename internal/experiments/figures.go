package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/tracing"
	"repro/internal/workload/oltp"
)

// Fig1Params renders the Figure 1 parameter table from the default config.
func Fig1Params() *Result {
	cfg := config.Default()
	var sb strings.Builder
	row := func(k string, v interface{}) { fmt.Fprintf(&sb, "%-36s %v\n", k, v) }
	row("Processors", cfg.Nodes)
	row("Issue width", cfg.IssueWidth)
	row("Instruction window size", cfg.WindowSize)
	row("Integer ALUs / FPUs / addr-gen", fmt.Sprintf("%d / %d / %d", cfg.IntALUs, cfg.FPUs, cfg.AddrGenUnits))
	row("Branch predictor", fmt.Sprintf("PA(%d,%d)/g(%d,%d) hybrid", cfg.BPredPAEntries, cfg.BPredHistoryBits, cfg.BPredHistoryBits, cfg.BPredHistoryBits))
	row("BTB", fmt.Sprintf("%d-entry %d-way", cfg.BTBEntries, cfg.BTBAssoc))
	row("Return address stack", cfg.RASEntries)
	row("Simultaneous speculated branches", cfg.MaxSpeculatedBr)
	row("Memory queue size", cfg.MemQueueSize)
	row("Cache line size", cfg.LineBytes())
	row("L1 I-cache", fmt.Sprintf("%dKB %d-way, %d cycle", cfg.L1I.SizeBytes>>10, cfg.L1I.Assoc, cfg.L1I.HitCycles))
	row("L1 D-cache", fmt.Sprintf("%dKB %d-way, %d cycle, %d ports", cfg.L1D.SizeBytes>>10, cfg.L1D.Assoc, cfg.L1D.HitCycles, cfg.L1D.Ports))
	row("L2 cache", fmt.Sprintf("%dMB %d-way, %d cycle pipelined", cfg.L2.SizeBytes>>20, cfg.L2.Assoc, cfg.L2.HitCycles))
	row("MSHRs (L1/L2)", fmt.Sprintf("%d / %d", cfg.L1D.MSHRs, cfg.L2.MSHRs))
	row("TLBs", fmt.Sprintf("%d-entry fully associative, %dKB pages, bin-hopping", cfg.DTLBEntries, cfg.PageBytes>>10))
	row("Local read latency (contentionless)", "~100 cycles")
	row("Remote read latency", "~160-180 cycles")
	row("Cache-to-cache read latency", "~280-310 cycles")
	return &Result{ID: "fig1", Title: "Default system parameters", Tables: []string{sb.String()}}
}

// Experiment is one table or figure as data: the simulations it runs and
// a pure render that reduces their reports to the tables it prints.
type Experiment struct {
	ID    string
	Title string
	Notes string

	// sims lists the experiment's simulations; Run returns their reports
	// in this order.
	sims func() []sim
	// render turns the simulations' reports, and the tracers of traced
	// simulations, into printable tables.
	render func(sims []sim, reps []*stats.Report, trs []*tracing.Tracer) []string
}

// Run simulates e's simulations under sc and renders its tables.
func (e Experiment) Run(sc Scale) (*Result, error) {
	sims := e.sims()
	reports, tracers, err := runPoints(sc, sims)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID: e.ID, Title: e.Title, Reports: reports,
		Tables: e.render(sims, reports, tracers),
	}, nil
}

// All enumerates every experiment.
var All = []Experiment{
	{ID: "fig2a", Title: "Impact of multiple issue and out-of-order execution",
		Notes: "OLTP: issue width x in-order/OOO", sims: issueWidthSims(false), render: breakdown},
	{ID: "fig2b", Title: "Impact of instruction window size",
		Notes: "OLTP: instruction window size", sims: windowSims(false), render: breakdownReadStall},
	{ID: "fig2c", Title: "Impact of multiple outstanding misses",
		Notes: "OLTP: outstanding misses (MSHRs)", sims: mshrSims(false), render: breakdownReadStall},
	{ID: "fig2d-g", Title: "MSHR occupancy distributions",
		Notes: "OLTP: MSHR occupancy distributions", sims: baseSim("base", false), render: occupancy},
	{ID: "fig3a", Title: "Impact of multiple issue and out-of-order execution",
		Notes: "DSS: issue width x in-order/OOO", sims: issueWidthSims(true), render: breakdown},
	{ID: "fig3b", Title: "Impact of instruction window size",
		Notes: "DSS: instruction window size", sims: windowSims(true), render: breakdownReadStall},
	{ID: "fig3c", Title: "Impact of multiple outstanding misses",
		Notes: "DSS: outstanding misses (MSHRs)", sims: mshrSims(true), render: breakdownReadStall},
	{ID: "fig3d-g", Title: "MSHR occupancy distributions",
		Notes: "DSS: MSHR occupancy distributions", sims: baseSim("base", true), render: occupancy},
	{ID: "fig4", Title: "Factors limiting OLTP performance",
		Notes: "OLTP: limit study (FUs, bpred, icache, window)", sims: fig4Sims, render: breakdownReadStall},
	{ID: "fig5", Title: "Uniprocessor vs multiprocessor components",
		Notes: "uniprocessor vs multiprocessor components", sims: fig5Sims, render: fig5Render},
	{ID: "fig6", Title: "ILP-enabled consistency optimizations",
		Notes: "consistency models x implementations", sims: fig6Sims, render: fig6Render},
	{ID: "fig7a", Title: "Addressing the instruction bottleneck (stream buffers)",
		Notes: "OLTP: instruction stream buffers", sims: fig7aSims, render: fig7aRender},
	{ID: "fig7b", Title: "Addressing the migratory data bottleneck (flush/prefetch hints)",
		Notes: "OLTP: migratory flush/prefetch hints", sims: fig7bSims, render: breakdownReadStall},
	{ID: "tbl-miss", Title: "Base-system characterization",
		Notes: "base characterization (miss rates, IPC)", sims: missRateSims, render: missRateRender},
	{ID: "tbl-mig", Title: "Migratory sharing characterization (OLTP)",
		Notes: "migratory sharing characterization", sims: baseSim("OLTP", false), render: migratoryRender},
}

// workloads names the two workloads in the order figures plot them.
var workloads = []struct {
	name string
	dss  bool
}{{"OLTP", false}, {"DSS", true}}

// breakdown renders the execution-time breakdown of every report.
func breakdown(_ []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	return []string{stats.FormatBreakdownTable(reps)}
}

// breakdownReadStall adds the read-stall magnification table.
func breakdownReadStall(_ []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	return []string{stats.FormatBreakdownTable(reps), stats.FormatReadStallTable(reps)}
}

// baseSim lists one simulation of the default machine.
func baseSim(label string, dss bool) func() []sim {
	return func() []sim { return []sim{simOf(label, dss, nil)} }
}

// issueWidthSims is Figure 2(a) (OLTP) or 3(a) (DSS): in-order and
// out-of-order processors with issue widths 1, 2, 4, 8.
func issueWidthSims(dss bool) func() []sim {
	return func() []sim {
		var sims []sim
		for _, inorder := range []bool{true, false} {
			kind := "ooo"
			if inorder {
				kind = "inorder"
			}
			for _, w := range []int{1, 2, 4, 8} {
				sims = append(sims, simOf(fmt.Sprintf("%s-%dway", kind, w), dss, func(c *config.Config) {
					c.InOrder = inorder
					c.IssueWidth = w
				}))
			}
		}
		return sims
	}
}

// windowSims is Figure 2(b)/3(b): the instruction-window sweep, rendered
// with the read-stall magnification.
func windowSims(dss bool) func() []sim {
	return func() []sim {
		var sims []sim
		for _, ws := range []int{16, 32, 64, 128} {
			sims = append(sims, simOf(fmt.Sprintf("window-%d", ws), dss, func(c *config.Config) {
				c.WindowSize = ws
			}))
		}
		return sims
	}
}

// mshrSims is Figure 2(c)/3(c): the outstanding-miss (MSHR) sweep.
func mshrSims(dss bool) func() []sim {
	return func() []sim {
		var sims []sim
		for _, n := range []int{1, 2, 4, 8} {
			sims = append(sims, simOf(fmt.Sprintf("mshr-%d", n), dss, func(c *config.Config) {
				c.L1D.MSHRs = n
				c.L2.MSHRs = n
			}))
		}
		return sims
	}
}

// occupancy renders Figures 2(d)-(g)/3(d)-(g): MSHR occupancy
// distributions at the L1 data cache and L2 (all misses and read misses
// only) of the base system.
func occupancy(_ []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	rep := reps[0]
	labels := []string{"L1 all misses (d)", "L2 all misses (e)", "L1 read misses (f)", "L2 read misses (g)"}
	dists := [][]float64{rep.L1MSHRAll, rep.L2MSHRAll, rep.L1MSHRRead, rep.L2MSHRRead}
	return []string{stats.FormatOccupancyTable(labels, dists)}
}

// fig4Sims is Figure 4: factors limiting OLTP performance.
func fig4Sims() []sim {
	return []sim{
		simOf("base", false, nil),
		simOf("infinite-FUs", false, func(c *config.Config) { c.InfiniteFUs = true }),
		simOf("perfect-bpred", false, func(c *config.Config) { c.PerfectBPred = true }),
		simOf("perfect-icache", false, func(c *config.Config) { c.PerfectICache = true }),
		simOf("all+2x-window", false, func(c *config.Config) {
			c.InfiniteFUs = true
			c.PerfectBPred = true
			c.PerfectICache = true
			c.PerfectITLB = true
			c.PerfectDTLB = true
			c.WindowSize = 128
		}),
	}
}

// fig5Sims is Figure 5: the relative importance of execution-time
// components in uniprocessor vs multiprocessor systems, for both
// workloads.
func fig5Sims() []sim {
	var sims []sim
	for _, wl := range workloads {
		for _, nodes := range []int{1, 4} {
			sims = append(sims, simOf(fmt.Sprintf("%s-%dP", wl.name, nodes), wl.dss, func(c *config.Config) {
				c.Nodes = nodes
			}))
		}
	}
	return sims
}

func fig5Render(_ []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	var tables []string
	for _, pair := range [][]*stats.Report{reps[:2], reps[2:]} {
		// The paper compares the composition of execution time, so each
		// bar is normalized to its own total.
		var sb strings.Builder
		fmt.Fprintf(&sb, "%-12s | %6s %6s %6s %6s %6s  (fraction of own time)\n",
			"system", "CPU", "instr", "read", "write", "sync")
		for _, r := range pair {
			n := r.Normalized(r)
			fmt.Fprintf(&sb, "%-12s | %6.3f %6.3f %6.3f %6.3f %6.3f\n",
				r.Label, n.CPU(), n[stats.Instr], n.Read(), n[stats.Write], n[stats.Sync])
		}
		tables = append(tables, sb.String())
	}
	return tables
}

// fig6Sims is Figure 6: consistency-model implementations. For each
// workload, nine configurations: {SC, PC, RC} x {straightforward,
// +prefetch, +prefetch+speculative-load}, normalized to straightforward
// SC. simbench rebuilds configurations from this order.
func fig6Sims() []sim {
	var sims []sim
	for _, wl := range workloads {
		for _, impl := range []config.ConsistencyImpl{config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative} {
			for _, m := range []config.ConsistencyModel{config.SC, config.PC, config.RC} {
				sims = append(sims, simOf(fmt.Sprintf("%s-%v-%v", wl.name, m, impl), wl.dss, func(c *config.Config) {
					c.Consistency = m
					c.ConsistencyOpts = impl
				}))
			}
		}
	}
	return sims
}

func fig6Render(_ []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	half := len(reps) / 2
	return []string{stats.FormatBreakdownTable(reps[:half]), stats.FormatBreakdownTable(reps[half:])}
}

// fig7aSims is Figure 7(a): the instruction stream buffer study on OLTP:
// base, 2/4/8-entry stream buffers, perfect I-cache, and perfect I-cache
// + perfect I-TLB.
func fig7aSims() []sim {
	return []sim{
		simOf("base", false, nil),
		simOf("streambuf-2", false, func(c *config.Config) { c.StreamBufEntries = 2 }),
		simOf("streambuf-4", false, func(c *config.Config) { c.StreamBufEntries = 4 }),
		simOf("streambuf-8", false, func(c *config.Config) { c.StreamBufEntries = 8 }),
		simOf("perfect-icache", false, func(c *config.Config) { c.PerfectICache = true }),
		simOf("perfect-icache+itlb", false, func(c *config.Config) {
			c.PerfectICache = true
			c.PerfectITLB = true
		}),
	}
}

func fig7aRender(sims []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	var sb strings.Builder
	for i, s := range sims {
		if s.cfg.StreamBufEntries > 0 {
			fmt.Fprintf(&sb, "%-22s stream-buffer hit rate %.2f (I-miss reduction)\n",
				s.label, reps[i].StreamBufHitRate)
		}
	}
	return []string{stats.FormatBreakdownTable(reps), sb.String()}
}

// fig7bSims is Figure 7(b): software flush and prefetch hints for
// migratory data. All configurations include a 4-entry stream buffer; the
// final row is the paper's approximate bound (migratory reads serviced
// 40% faster, reflecting service by memory).
func fig7bSims() []sim {
	sb4 := func(c *config.Config) { c.StreamBufEntries = 4 }
	return []sim{
		simOf("base+sb4", false, sb4),
		simOf("+flush", false, sb4).withHints(oltp.HintFlush),
		simOf("+flush+prefetch", false, sb4).withHints(oltp.HintFlushPrefetch),
		simOf("bound(-40%-migratory)", false, func(c *config.Config) {
			sb4(c)
			c.MigratoryBound = true
		}),
	}
}

// missRateSims is the Section 3.1/3.2 characterization table: local miss
// rates per level and IPC for both workloads on the base system.
func missRateSims() []sim {
	var sims []sim
	for _, wl := range workloads {
		sims = append(sims, simOf(wl.name, wl.dss, nil))
	}
	return sims
}

func missRateRender(sims []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s | %7s %7s %7s | %5s | %7s %7s | %9s\n",
		"workload", "L1I", "L1D", "L2", "IPC", "bpred", "dirty%", "of L2 miss")
	for i, r := range reps {
		fmt.Fprintf(&sb, "%-8s | %6.1f%% %6.1f%% %6.1f%% | %5.2f | %6.1f%% %6.1f%% |\n",
			r.Label, r.L1IMissRate*100, r.L1DMissRate*100, r.L2MissRate*100,
			r.IPC(sims[i].cfg.Nodes), r.BranchMispred*100, r.DirtyFraction*100)
	}
	fmt.Fprintf(&sb, "(paper:   OLTP 7.6%% 14.1%% 7.4%% IPC 0.5, ~11%% bpred; DSS 0.0%% 0.9%% 23.1%% IPC 2.2)\n")
	return []string{sb.String()}
}

// migratoryRender is the Section 4.2 analysis of sharing patterns in the
// OLTP workload on the base system.
func migratoryRender(_ []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	rep := reps[0]
	var sb strings.Builder
	line := func(k string, got, paper string) { fmt.Fprintf(&sb, "%-52s %10s   (paper: %s)\n", k, got, paper) }
	line("shared writes to migratory data", fmt.Sprintf("%.0f%%", rep.SharedWriteMigratory*100), "88%")
	line("dirty reads to migratory data", fmt.Sprintf("%.0f%%", rep.ReadDirtyMigratory*100), "79%")
	line("migratory lines with write misses", fmt.Sprintf("%d", rep.MigratoryLines), "~520 hot lines")
	line("static instructions generating migratory refs", fmt.Sprintf("%d", rep.MigratoryPCs), "~100 hot instructions")
	line("write misses covered by top 3% of lines", fmt.Sprintf("%.0f%%", rep.LineConcentration*100), "70%")
	line("migratory refs from top 10% of instructions", fmt.Sprintf("%.0f%%", rep.PCConcentration*100), "75%")
	line("migratory writes inside critical sections", fmt.Sprintf("%.0f%%", rep.WriteCSFraction*100), "74%")
	line("migratory reads inside critical sections", fmt.Sprintf("%.0f%%", rep.ReadCSFraction*100), "54%")
	return []string{sb.String()}
}
