package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/tracing"
	"repro/internal/workload/oltp"
)

func init() {
	All = append(All,
		Experiment{ID: "ext-linesize", Title: "Ablation: larger transfer unit vs stream buffer (Sec 4.1)",
			Notes: "ablation: 128B lines vs stream buffer (Sec 4.1 discussion)", sims: lineSizeSims, render: lineSizeRender},
		Experiment{ID: "ext-flushinv", Title: "Ablation: flush keeping vs invalidating the local copy (Sec 4.2)",
			Notes: "ablation: flush keep-clean vs invalidate (Sec 4.2 finding)", sims: flushInvalidateSims, render: breakdown},
		Experiment{ID: "ext-restart", Title: "Ablation: pipeline restart penalty",
			Notes: "ablation: branch restart penalty", sims: branchPenaltySims, render: breakdown},
	)
}

// lineSizeSims is the Section 4.1 discussion: an alternative to the
// instruction stream buffer is a larger L1<->L2 transfer unit. The paper's
// experiments with 128-byte lines achieved miss-rate reductions comparable
// to stream buffers, but stream buffers adapt to longer streams without
// displacing useful data. Rows: base 64B, 128B lines, 64B + 4-entry stream
// buffer.
func lineSizeSims() []sim {
	return []sim{
		simOf("64B-lines", false, nil),
		simOf("128B-lines", false, func(c *config.Config) {
			c.L1I.LineBytes = 128
			c.L1D.LineBytes = 128
			c.L2.LineBytes = 128
			c.DataFlits = 16 // twice the data per transfer
		}),
		simOf("64B+streambuf-4", false, func(c *config.Config) { c.StreamBufEntries = 4 }),
	}
}

func lineSizeRender(sims []sim, reps []*stats.Report, _ []*tracing.Tracer) []string {
	tables := []string{stats.FormatBreakdownTable(reps)}
	for i, s := range sims {
		tables = append(tables, fmt.Sprintf("%-20s L1I miss/instr %.3f\n", s.label, reps[i].L1IMissRate))
	}
	return tables
}

// flushInvalidateSims is the Section 4.2 finding that the flush primitive
// must keep a clean copy in the cache: an invalidating flush loses to the
// base system because the flusher's own subsequent reads miss.
func flushInvalidateSims() []sim {
	sb4 := func(c *config.Config) { c.StreamBufEntries = 4 }
	return []sim{
		simOf("base+sb4", false, sb4),
		simOf("flush-keep-clean", false, sb4).withHints(oltp.HintFlush),
		simOf("flush-invalidate", false, func(c *config.Config) {
			sb4(c)
			c.FlushKeepsClean = false
		}).withHints(oltp.HintFlush),
	}
}

// branchPenaltySims sweeps the pipeline-restart penalty to show how
// sensitive OLTP is to front-end redirect cost (the paper's mispredict
// handling stalls fetch until resolution; the restart adds on top).
func branchPenaltySims() []sim {
	var sims []sim
	for _, pen := range []int{2, 4, 8, 16} {
		sims = append(sims, simOf(fmt.Sprintf("restart-%d", pen), false, func(c *config.Config) {
			c.BranchRestart = pen
		}))
	}
	return sims
}
