package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/tracing"
)

// stormFaults is a NACK storm: every directory request is bounced with a
// huge retry bound and a long backoff, so cumulative backoff silences
// retirement for far longer than the watchdog window — a fault-induced
// livelock.
func stormFaults() config.FaultConfig {
	return config.FaultConfig{
		Enabled:        true,
		Seed:           7,
		NACKProb:       1.0,
		NACKMaxRetries: 1 << 20,
		NACKBackoff:    2_000,
	}
}

// tinyDSS returns one orchestration point running a small real DSS
// simulation under sc.
func tinyDSS(id string, sc Scale, mod func(*config.Config)) runner.Point {
	exp := Experiment{ID: id, Title: id,
		sims: func() []sim {
			return []sim{simOf(id, true, func(c *config.Config) {
				c.Nodes = 2
				if mod != nil {
					mod(c)
				}
			})}
		},
		render: func([]sim, []*stats.Report, []*tracing.Tracer) []string { return nil },
	}
	return Points([]Experiment{exp}, sc, nil)[0]
}

// TestFaultStormRecovered: a fault-injected NACK storm must trip the
// forward-progress watchdog; the orchestration layer must retry the point
// with the fault profile disabled and journal it as recovered_after_fault,
// preserving the faulted attempt's diag snapshot.
func TestFaultStormRecovered(t *testing.T) {
	sc := Scale{
		DSSRows:        500,
		MaxCycles:      200_000_000,
		WatchdogWindow: 50_000,
		Faults:         stormFaults(),
	}
	pt := tinyDSS("nack-storm", sc, nil)
	if !pt.Faulty {
		t.Fatal("point built from a faulted scale is not marked Faulty")
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	sum, err := runner.Run(context.Background(), []runner.Point{pt}, runner.Options{
		PointTimeout: 2 * time.Minute,
		BackoffBase:  time.Millisecond,
		MaxAttempts:  3,
		Journal:      j,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := sum.Records[0]
	if rec.Status != runner.StatusRecovered {
		t.Fatalf("status = %q (class %q, err %s), want recovered_after_fault",
			rec.Status, rec.Class, rec.Error)
	}
	if rec.Class != runner.ClassProgress {
		t.Errorf("class = %q, want progress (the storm must trip the watchdog)", rec.Class)
	}
	if rec.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", rec.Attempts)
	}
	if rec.Diag == nil || rec.Diag.Reason != "watchdog" {
		t.Fatalf("original watchdog snapshot not preserved: %+v", rec.Diag)
	}

	// The journal must carry the same record durably, snapshot included.
	var jr *runner.Record
	err = obs.ScanJSONL(path, nil, func(line []byte) bool {
		var r runner.Record
		if json.Unmarshal(line, &r) != nil || r.SpecHash == "" {
			return false
		}
		if r.SpecHash == rec.SpecHash {
			jr = &r
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if jr == nil || jr.Status != runner.StatusRecovered || jr.Diag == nil || jr.Diag.Reason != "watchdog" {
		t.Fatalf("journaled record = %+v, want recovered with watchdog snapshot", jr)
	}
}

// TestParallelMatchesSerial: worker parallelism must not change any
// point's simulated outcome — for a fixed seed the per-point counters of a
// parallel sweep are bit-identical to serial execution.
func TestParallelMatchesSerial(t *testing.T) {
	sc := Scale{DSSRows: 400, MaxCycles: 100_000_000}
	build := func() []runner.Point {
		var pts []runner.Point
		for i, w := range []int{1, 2, 4, 8} {
			w := w
			pts = append(pts, tinyDSS(fmt.Sprintf("issue-%d", i), sc, func(c *config.Config) {
				c.IssueWidth = w
			}))
		}
		return pts
	}
	marshal := func(sum *runner.Summary) []string {
		var out []string
		for _, r := range sum.Records {
			if r.Status != runner.StatusOK {
				t.Fatalf("point %s: %s (%s)", r.ID, r.Status, r.Error)
			}
			out = append(out, string(r.Result))
		}
		return out
	}
	serial, err := runner.Run(context.Background(), build(), runner.Options{
		Workers: 1, PointTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.Run(context.Background(), build(), runner.Options{
		Workers: 4, PointTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, p := marshal(serial), marshal(parallel)
	for i := range s {
		if s[i] != p[i] {
			t.Errorf("point %d: parallel result differs from serial\nserial:   %.200s\nparallel: %.200s",
				i, s[i], p[i])
		}
	}
}

// TestPointSpecHashing: resume identity must react to scale and fault
// changes but not to cancellation/telemetry plumbing.
func TestPointSpecHashing(t *testing.T) {
	base := Scale{DSSRows: 100, MaxCycles: 1000}
	h := runner.SpecHash(base.Spec("fig2a"))
	if runner.SpecHash(base.Spec("fig2b")) == h {
		t.Error("different experiments share a spec hash")
	}
	changed := base
	changed.DSSRows = 200
	if runner.SpecHash(changed.Spec("fig2a")) == h {
		t.Error("scale change did not change the spec hash")
	}
	faulted := base
	faulted.Faults = stormFaults()
	if runner.SpecHash(faulted.Spec("fig2a")) == h {
		t.Error("fault profile change did not change the spec hash")
	}
	withCtx := base
	withCtx.Context = context.Background()
	if runner.SpecHash(withCtx.Spec("fig2a")) != h {
		t.Error("context plumbing changed the spec hash")
	}
}
