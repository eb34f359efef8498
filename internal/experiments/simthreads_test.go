package experiments

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// Each simulation runs on one host goroutine, but figures and sweeps run
// several simulations at once (Scale.Parallel, the runner pool). The
// simulated outcome must not depend on how many host threads are busy:
// a run made alongside concurrent sibling runs must be bit-identical to
// the same run made alone — the full report, the telemetry byte stream,
// the exported trace, and (when checkpointing) the outcome after mid-run
// captures. A failure here means some state leaks between simulations
// (a package-level cache, a shared RNG, a shared observer).

// stRunConcurrent makes the same run on n goroutines at once, each with
// its own observers and (when checkpointed) its own checkpoint file, and
// returns every result.
func stRunConcurrent(t *testing.T, n int, a arm, checkpointed bool) []ffResult {
	t.Helper()
	results := make([]ffResult, n)
	errs := make([]error, n)
	arms := make([]arm, n)
	for i := range arms {
		arms[i] = a
		if checkpointed {
			path := filepath.Join(t.TempDir(), "st.ckpt")
			arms[i].checkpoint = func(label string) *core.CheckpointOptions {
				// Several captures per run.
				return &core.CheckpointOptions{Path: path, Interval: 200_000}
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = arms[i].run()
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

// testSimThreadsIdentity compares concurrent runs against the same run
// made alone: the shared uncheckpointed baseline, which checkpointing (a
// pure observer) must not change either.
func testSimThreadsIdentity(t *testing.T, oltpWorkload bool, lp config.LatchPolicy,
	faults config.FaultConfig, traced, checkpointed bool, simThreads int) {
	t.Helper()
	a := arm{oltp: oltpWorkload, cfg: withLatch(lp), faults: faults, traced: traced}
	alone := a.baseline(t)
	if alone.rep.Instructions == 0 {
		t.Fatal("degenerate run: no instructions retired")
	}
	for i, par := range stRunConcurrent(t, simThreads, a, checkpointed) {
		t.Run(fmt.Sprintf("run%d", i), func(t *testing.T) {
			assertIdentical(t, par, alone)
			if traced {
				if par.totals != alone.totals {
					t.Errorf("trace aggregate totals differ:\nconcurrent %v\nalone      %v", par.totals, alone.totals)
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
// checkpointed runs must still match the run made alone.
func TestSimThreadsIdentityCheckpointed(t *testing.T) {
	testSimThreadsIdentity(t, false, config.LatchPlain, config.FaultConfig{}, false, true, 4)
}
