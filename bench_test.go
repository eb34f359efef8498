package repro

// One benchmark per table and figure of the paper's evaluation, the
// ablations and the extensions: BenchmarkExperiments/<id> for every id in
// experiments.All. Each iteration regenerates the experiment at QuickScale
// (a full multiprocessor simulation sweep), so run with -benchtime=1x for
// a single regeneration:
//
//	go test -run '^$' -bench=Experiments -benchmem -benchtime=1x
//	go test -run '^$' -bench='Experiments/fig6$' -benchtime=1x
//
// The benchmark reports, besides wall time, the simulated instructions per
// wall-clock second of the experiment's runs (sim_Minstr/s) — the
// simulator's own throughput metric.

import (
	"testing"

	"repro/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			var instr uint64 // accumulated across iterations, reported once
			for i := 0; i < b.N; i++ {
				res, err := e.Run(experiments.QuickScale)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res.Reports {
					instr += r.Instructions
				}
			}
			b.ReportMetric(float64(instr)/1e6/b.Elapsed().Seconds(), "sim_Minstr/s")
		})
	}
}
