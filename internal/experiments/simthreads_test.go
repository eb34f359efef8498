package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Each simulation runs on one host goroutine, but figures and sweeps run
// several simulations at once (Scale.Parallel, the runner pool). The
// simulated outcome must not depend on how many host threads are busy:
// a run made alongside concurrent sibling runs must be bit-identical to
// the same run made alone — the full report, the telemetry byte stream,
// the exported trace, and (when checkpointing) the outcome after mid-run
// captures. A failure here means some state leaks between simulations
// (a package-level cache, a shared RNG, a shared observer).

// stRun is one run of the workload with the given latch policy, fault
// profile, and observers. It reports errors instead of failing the test
// so it can run on goroutines other than the test's own.
func stRun(dir string, oltpWorkload bool, lp config.LatchPolicy, faults config.FaultConfig,
	traced, checkpointed bool) (ffResult, error) {
	sc := ffScale()
	sc.Faults = faults
	sc.LatchPolicy = lp

	var jsonl bytes.Buffer
	sc.Telemetry = func(label string) *telemetry.Pipeline {
		pipe := telemetry.New(50_000)
		pipe.Attach(telemetry.NewJSONLSink(nopWriteCloser{&jsonl}), nil)
		return pipe
	}
	var trc *tracing.Tracer
	if traced {
		trc = tracing.New(tracing.Options{})
		sc.Tracer = trc
	}
	if checkpointed {
		sc.Checkpoint = func(label string) *core.CheckpointOptions {
			return &core.CheckpointOptions{
				Path: filepath.Join(dir, "st.ckpt"),
				// Several captures per run.
				Interval: 200_000,
			}
		}
	}

	cfg := config.Default()
	var res ffResult
	var err error
	if oltpWorkload {
		res.rep, err = RunOLTP(cfg, sc, "simthreads-identity", 0)
	} else {
		res.rep, err = RunDSS(cfg, sc, "simthreads-identity")
	}
	if err != nil {
		return res, err
	}
	res.jsonl = jsonl.Bytes()
	if traced {
		var buf bytes.Buffer
		if err := trc.WriteChrome(&buf); err != nil {
			return res, err
		}
		res.trace = buf.Bytes()
		res.analysis = trc.Analysis()
	}
	return res, nil
}

// stRunConcurrent makes the same run on n goroutines at once, each with
// its own observers and checkpoint file, and returns every result.
func stRunConcurrent(t *testing.T, n int, oltpWorkload bool, lp config.LatchPolicy,
	faults config.FaultConfig, traced, checkpointed bool) []ffResult {
	t.Helper()
	results := make([]ffResult, n)
	errs := make([]error, n)
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = stRun(dirs[i], oltpWorkload, lp, faults, traced, checkpointed)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	return results
}

func testSimThreadsIdentity(t *testing.T, oltpWorkload bool, lp config.LatchPolicy,
	faults config.FaultConfig, traced, checkpointed bool, simThreads int) {
	t.Helper()
	alone, err := stRun(t.TempDir(), oltpWorkload, lp, faults, traced, checkpointed)
	if err != nil {
		t.Fatal(err)
	}
	if alone.rep.Instructions == 0 {
		t.Fatal("degenerate run: no instructions retired")
	}
	for i, par := range stRunConcurrent(t, simThreads, oltpWorkload, lp, faults, traced, checkpointed) {
		t.Run(fmt.Sprintf("run%d", i), func(t *testing.T) {
			assertIdentical(t, par, alone)
			if traced {
				if pt, at := par.analysis.Totals(), alone.analysis.Totals(); pt != at {
					t.Errorf("trace aggregate totals differ:\nconcurrent %v\nalone      %v", pt, at)
				}
			}
		})
	}
}

func TestSimThreadsIdentityOLTPPlain(t *testing.T) {
	testSimThreadsIdentity(t, true, config.LatchPlain, config.FaultConfig{}, false, false, 2)
}

func TestSimThreadsIdentityDSSPlain(t *testing.T) {
	testSimThreadsIdentity(t, false, config.LatchPlain, config.FaultConfig{}, false, false, 4)
}

// Fault injection draws from a seeded RNG; each run must own its stream.
func TestSimThreadsIdentityFaults(t *testing.T) {
	f := config.FaultConfig{
		Enabled:        true,
		Seed:           42,
		MeshDelayProb:  0.05,
		MeshDelayMax:   40,
		NACKProb:       0.02,
		NACKMaxRetries: 4,
		NACKBackoff:    20,
		MemStallProb:   0.05,
		MemStallCycles: 60,
	}
	testSimThreadsIdentity(t, true, config.LatchPlain, f, false, false, 4)
}

// Each run has its own tracer; concurrent traced runs must export the
// same bytes and aggregates as a traced run made alone.
func TestSimThreadsIdentityTraced(t *testing.T) {
	testSimThreadsIdentity(t, true, config.LatchPlain, config.FaultConfig{}, true, false, 4)
}

// Mid-run checkpoint captures write per-run files; concurrent
// checkpointed runs must still match a checkpointed run made alone.
func TestSimThreadsIdentityCheckpointed(t *testing.T) {
	testSimThreadsIdentity(t, false, config.LatchPlain, config.FaultConfig{}, false, true, 4)
}
