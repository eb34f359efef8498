package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload/oltp"
)

// TestGlueMatchesExperiments pins the benchmark's own set-up (split into
// workload and machine halves, streams wrapped for counting, sampling
// and recording) to experiments.RunOLTP/RunDSS: the reports must be
// byte-identical, so the benchmark measures the simulation users run.
func TestGlueMatchesExperiments(t *testing.T) {
	sc := benchScale
	sc.DSSRows = 1_000
	cfg := config.Default()
	want := map[string]func() (*stats.Report, error){
		"oltp": func() (*stats.Report, error) { return experiments.RunOLTP(cfg, sc, "oltp", oltp.HintNone) },
		"dss":  func() (*stats.Report, error) { return experiments.RunDSS(cfg, sc, "dss") },
	}
	for name, run := range want {
		ref, err := run()
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		wantJSON, _ := json.Marshal(ref)
		for _, bo := range []buildOptions{{}, {sampleNext: true, record: 1000}} {
			s, err := builders[name](sc, 1, bo)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.sys.Run(s.opt)
			if err == nil {
				err = s.verify(rep)
			}
			if err != nil {
				t.Fatalf("%s %+v: %v", name, bo, err)
			}
			got, _ := json.Marshal(rep)
			if !bytes.Equal(got, wantJSON) {
				t.Errorf("%s %+v: report differs from experiments'\n got %s\nwant %s", name, bo, got, wantJSON)
			}
			if bo.record > 0 && len(s.streams[0].rec) != bo.record {
				t.Errorf("%s: recorded %d instructions, want %d", name, len(s.streams[0].rec), bo.record)
			}
		}
	}
}
