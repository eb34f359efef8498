package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/tracing"
)

func init() {
	All = append(All,
		Experiment{ID: "ext-migproto", Title: "Adaptive migratory protocol under RC vs SC (footnote 2)",
			Notes: "extension: adaptive migratory protocol (footnote 2)", sims: migProtoSims, render: migProtoRender},
		Experiment{ID: "ext-unisb", Title: "Uniprocessor stream buffers (Sec 4.1: -22%/-27%)",
			Notes: "extension: uniprocessor stream buffers (Sec 4.1)", sims: uniStreamBufSims, render: breakdown},
		Experiment{ID: "ext-validate", Title: "Validation: multiprocessor scaling and locking (Sec 2.3)",
			Notes: "validation: scaling + locking characteristics (Sec 2.3)", sims: validationSims, render: validationRender},
		Experiment{ID: "ext-btbpf", Title: "BTB-directed instruction prefetch vs stream buffer (Sec 4.1)",
			Notes: "extension: BTB-directed instruction prefetch (Sec 4.1)", sims: btbPrefetchSims, render: breakdown},
		Experiment{ID: "ext-htm", Title: "HTM latch elision vs prefetch+flush hints (OLTP and DSS)",
			Notes: "extension: HTM latch elision vs prefetch+flush hints", sims: latchElisionSims, render: latchElisionRender},
		Experiment{ID: "ext-htmcap", Title: "HTM write-set capacity cliff (OLTP, elision)",
			Notes: "extension: HTM write-set capacity cliff", sims: latchCapacitySims, render: latchCapacityRender},
	)
}

// migProtoSims is the paper's footnote 2: an adaptive migratory coherence
// protocol (Cox & Fowler / Stenstrom et al.) that hands ownership to
// readers of migratory lines "will not provide any gains since the write
// latency is already hidden" under the relaxed base model. Under
// straightforward SC, where stores block at the head of the window, the
// same protocol does help — which is exactly why the paper's remedy is the
// flush hint, not the protocol change.
func migProtoSims() []sim {
	var sims []sim
	for _, m := range []config.ConsistencyModel{config.RC, config.SC} {
		for _, mig := range []bool{false, true} {
			label := fmt.Sprintf("%v-base", m)
			if mig {
				label = fmt.Sprintf("%v+migratory-protocol", m)
			}
			sims = append(sims, simOf(label, false, func(c *config.Config) {
				c.Consistency = m
				c.MigratoryProtocol = mig
			}))
		}
	}
	return sims
}

func migProtoRender(_ []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	var sb strings.Builder
	rcBase, rcMig := reps[0].ExecTime(), reps[1].ExecTime()
	scBase, scMig := reps[2].ExecTime(), reps[3].ExecTime()
	fmt.Fprintf(&sb, "RC: migratory protocol changes execution time by %+.1f%% (paper: no gain expected)\n",
		(rcMig-rcBase)/rcBase*100)
	fmt.Fprintf(&sb, "SC: migratory protocol changes execution time by %+.1f%%\n",
		(scMig-scBase)/scBase*100)
	return []string{stats.FormatBreakdownTable(reps), sb.String()}
}

// uniStreamBufSims is the paper's uniprocessor stream-buffer study
// (Section 4.1): "stream buffers of size 2 and 4 achieve reductions in
// execution time of 22% and 27% respectively" — larger than the
// multiprocessor gains because instruction stall is a bigger share of
// uniprocessor time (Figure 5).
func uniStreamBufSims() []sim {
	var sims []sim
	for _, n := range []int{0, 2, 4, 8} {
		label := "uni-base"
		if n > 0 {
			label = fmt.Sprintf("uni-streambuf-%d", n)
		}
		sims = append(sims, simOf(label, false, func(c *config.Config) {
			c.Nodes = 1
			c.StreamBufEntries = n
		}))
	}
	return sims
}

// validationSims is the Section 2.3 sanity check: OLTP throughput scaling
// from 1 to 4 processors and the locking characteristics ("most of the
// lock accesses in OLTP were contentionless").
func validationSims() []sim {
	var sims []sim
	for _, nodes := range []int{1, 2, 4} {
		sims = append(sims, simOf(fmt.Sprintf("%dP", nodes), false, func(c *config.Config) {
			c.Nodes = nodes
		}))
	}
	return sims
}

func validationRender(sims []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	var sb strings.Builder
	var times []float64
	for i, rep := range reps {
		nodes := sims[i].cfg.Nodes
		// Throughput scaling: the same per-process work runs on more CPUs;
		// compare transactions per cycle via instructions per cycle. A run
		// that retired nothing (Cycles == 0) reports zero, not NaN.
		ipc, idle := 0.0, 0.0
		if rep.Cycles > 0 {
			ipc = float64(rep.Instructions) / float64(rep.Cycles)
			idle = rep.IdleCycles / float64(rep.Cycles*uint64(nodes))
		}
		times = append(times, ipc)
		fmt.Fprintf(&sb, "%dP: machine throughput %.2f instr/cycle, lock contention %.1f%%, idle %.0f%%\n",
			nodes, ipc, rep.SyncContention*100, idle*100)
	}
	speedup := 0.0
	if times[0] > 0 {
		speedup = times[2] / times[0]
	}
	fmt.Fprintf(&sb, "1P -> 4P throughput scaling: %.2fx\n", speedup)
	fmt.Fprintf(&sb, "(Section 2.3: speedup and locking behaviour verified against the real platform;\n")
	fmt.Fprintf(&sb, " most OLTP lock accesses are contentionless.)\n")
	return []string{sb.String()}
}

// latchElisionSims is the elision-vs-hints study: the same OLTP and DSS
// runs under the three strategies the LatchPolicy seam offers — the plain
// latch baseline, the paper-style prefetch+flush latch hints (Sec 4.2's
// remedy applied in hardware at the latch), and best-effort HTM latch
// elision with latch-acquire fallback. The paper identified latch
// ping-pong as the dominant migratory-sharing cost in OLTP; elision is
// the modern answer the paper predates, so this figure is its natural
// extension. The OLTP baseline and elision arms additionally run under
// the event tracer so the figure attributes exactly which stall cycles
// elision recovered (sync + dirty-read migratory time), reconciled
// against the simulator's own breakdown.
func latchElisionSims() []sim {
	var sims []sim
	for _, wl := range workloads {
		for _, p := range []config.LatchPolicy{config.LatchPlain, config.LatchHints, config.LatchHTM} {
			s := simOf(fmt.Sprintf("%s-%v", strings.ToLower(wl.name), p), wl.dss, func(c *config.Config) {
				c.LatchPolicy = p
			})
			s.traced = !wl.dss && p != config.LatchHints
			sims = append(sims, s)
		}
	}
	return sims
}

func latchElisionRender(sims []sim, reps []*stats.Report, trs []*tracing.Tracer) []string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s | %9s %9s %9s %9s %9s %9s | %9s %9s\n",
		"arm", "exec", "begins", "commits", "conflict", "capacity", "fallback", "elided%", "acquires", "contended")
	for i, s := range sims {
		r := reps[i]
		base := reps[0]
		if s.dss {
			base = reps[3]
		}
		elided := 0.0
		if r.HTMBegins > 0 {
			elided = float64(r.HTMCommits) / float64(r.HTMBegins) * 100
		}
		fmt.Fprintf(&sb, "%-12s %10.3f | %9d %9d %9d %9d %9d %8.1f%% | %9d %9d\n",
			s.label, r.ExecTime()/base.ExecTime(), r.HTMBegins, r.HTMCommits,
			r.HTMConflictAborts, r.HTMCapacityAborts, r.HTMFallbacks, elided,
			r.LatchAcquires, r.LatchContended)
	}

	// Attribution: the traced OLTP baseline (0) against OLTP elision (2).
	var att strings.Builder
	baseA, elA := trs[0].Analysis(), trs[2].Analysis()
	bt, et := baseA.Totals(), elA.Totals()
	att.WriteString(tracing.FormatHTM(elA.HTM, et))
	recovered := (bt[stats.Sync] + bt[stats.ReadDirty]) -
		(et[stats.Sync] + et[stats.ReadDirty] + et.HTM())
	fmt.Fprintf(&att, "recovered latch stall (sync + dirty-read, baseline - elision): %.0f slot-cycles\n", recovered)
	fmt.Fprintf(&att, "trace/simulator reconcile error: baseline %.3f%%, elision %.3f%%\n",
		tracing.ReconcileError(bt, reps[0].Breakdown)*100,
		tracing.ReconcileError(et, reps[2].Breakdown)*100)
	mig, non, rows := elA.MigratorySummary(5)
	att.WriteString("\nmigratory attribution under elision:\n")
	att.WriteString(tracing.FormatMigratory(mig, non, rows))

	return []string{
		stats.FormatBreakdownTable(reps[:3]),
		stats.FormatBreakdownTable(reps[3:]),
		sb.String(),
		att.String(),
	}
}

// latchCapacitySims sweeps the transactional write-set bound under HTM
// latch elision on OLTP: a POWER8-style capacity cliff. Once the bound
// covers the critical section's store footprint, capacity aborts vanish
// and the commit rate saturates; below it every elision attempt dies on
// capacity and the policy degenerates to latch acquisition via fallback.
func latchCapacitySims() []sim {
	var sims []sim
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		sims = append(sims, simOf(fmt.Sprintf("wset-%d", b), false, func(c *config.Config) {
			c.LatchPolicy = config.LatchHTM
			c.HTM.WriteSetLines = b
		}))
	}
	return sims
}

func latchCapacityRender(sims []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %10s | %9s %9s %9s %9s %9s %9s\n",
		"wset", "exec", "begins", "commits", "commit%", "capacity", "conflict", "fallback")
	roomiest := reps[len(reps)-1].ExecTime()
	for i, r := range reps {
		rate := 0.0
		if r.HTMBegins > 0 {
			rate = float64(r.HTMCommits) / float64(r.HTMBegins) * 100
		}
		fmt.Fprintf(&sb, "%-8d %10.3f | %9d %9d %8.1f%% %9d %9d %9d\n",
			sims[i].cfg.HTM.WriteSetLines, r.ExecTime()/roomiest, r.HTMBegins, r.HTMCommits,
			rate, r.HTMCapacityAborts, r.HTMConflictAborts, r.HTMFallbacks)
	}
	return []string{stats.FormatBreakdownTable(reps), sb.String()}
}

// btbPrefetchSims is the other Section 4.1 preliminary study: a predictor
// that interfaces with the branch target buffer to prefetch the
// instruction lines of predicted branch targets. The paper concluded its
// benefits "are likely to be limited ... and may not justify the
// associated hardware costs, especially when a stream buffer is already
// used".
func btbPrefetchSims() []sim {
	return []sim{
		simOf("base", false, nil),
		simOf("btb-prefetch", false, func(c *config.Config) { c.BTBPrefetch = true }),
		simOf("streambuf-4", false, func(c *config.Config) { c.StreamBufEntries = 4 }),
		simOf("streambuf-4+btb", false, func(c *config.Config) {
			c.StreamBufEntries = 4
			c.BTBPrefetch = true
		}),
	}
}
