package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// The fast-forward equivalence tests are the tentpole guarantee of the
// idle-cycle skip: a run with fast-forward enabled must be bit-identical
// to the same run ticking every cycle — the full Report (every float64 of
// the breakdown, every histogram bucket), the telemetry JSONL byte
// stream, and the exported trace. Each test runs both arms and compares.

// ffScale is small enough to keep the suite fast but long enough to cross
// several telemetry intervals, context switches, lock contention, and the
// warm-up reset in both workloads.
func ffScale() Scale {
	return Scale{
		OLTPTransactions: 1,
		OLTPWarmupTx:     1,
		DSSRows:          2_000,
		MaxCycles:        200_000_000,
	}
}

type nopWriteCloser struct{ *bytes.Buffer }

func (nopWriteCloser) Close() error { return nil }

// ffRun is one arm of an equivalence test: run the workload with the
// given latch policy and fast-forward setting, capturing the report, the
// telemetry JSONL bytes, and (when traced) the exported Chrome trace
// bytes.
type ffResult struct {
	rep      *stats.Report
	jsonl    []byte
	trace    []byte
	analysis *tracing.Analysis
}

func ffRun(t *testing.T, oltpWorkload, traced bool, faults config.FaultConfig, lp config.LatchPolicy, disableFF bool) ffResult {
	t.Helper()
	return ffRunConfig(t, config.Default(), oltpWorkload, traced, faults, lp, disableFF)
}

// ffRunConfig is ffRun on the machine configuration cfg.
func ffRunConfig(t *testing.T, cfg config.Config, oltpWorkload, traced bool, faults config.FaultConfig, lp config.LatchPolicy, disableFF bool) ffResult {
	t.Helper()
	sc := ffScale()
	sc.DisableFastForward = disableFF
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

	var rep *stats.Report
	var err error
	if oltpWorkload {
		rep, err = RunOLTP(cfg, sc, "ff-equivalence", 0)
	} else {
		rep, err = RunDSS(cfg, sc, "ff-equivalence")
	}
	if err != nil {
		t.Fatal(err)
	}
	res := ffResult{rep: rep, jsonl: jsonl.Bytes()}
	if traced {
		var buf bytes.Buffer
		if err := trc.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		res.trace = buf.Bytes()
		res.analysis = trc.Analysis()
	}
	return res
}

func assertIdentical(t *testing.T, on, off ffResult) {
	t.Helper()
	if on.rep.Cycles != off.rep.Cycles {
		t.Errorf("cycles differ: ff-on %d, ff-off %d", on.rep.Cycles, off.rep.Cycles)
	}
	if on.rep.Instructions != off.rep.Instructions {
		t.Errorf("instructions differ: ff-on %d, ff-off %d", on.rep.Instructions, off.rep.Instructions)
	}
	if on.rep.Breakdown != off.rep.Breakdown {
		t.Errorf("breakdown differs (must be bitwise equal):\nff-on  %v\nff-off %v", on.rep.Breakdown, off.rep.Breakdown)
	}
	if !reflect.DeepEqual(on.rep, off.rep) {
		t.Errorf("reports differ:\nff-on  %+v\nff-off %+v", on.rep, off.rep)
	}
	if !bytes.Equal(on.jsonl, off.jsonl) {
		t.Errorf("telemetry JSONL series differ (%d vs %d bytes)", len(on.jsonl), len(off.jsonl))
	}
	if !bytes.Equal(on.trace, off.trace) {
		t.Errorf("exported traces differ (%d vs %d bytes)", len(on.trace), len(off.trace))
	}
}

func TestFastForwardEquivalenceOLTP(t *testing.T) {
	testFastForwardEquivalence(t, true, config.LatchPlain)
}

func TestFastForwardEquivalenceDSS(t *testing.T) {
	testFastForwardEquivalence(t, false, config.LatchPlain)
}

// The hints and htm latch policies add their own timed lock-path state
// (latch prefetch and flush, elided critical sections with abort backoff)
// that the quiet-span bounds must cover.
func TestFastForwardEquivalenceOLTPHints(t *testing.T) {
	testFastForwardEquivalence(t, true, config.LatchHints)
}

func TestFastForwardEquivalenceOLTPHTM(t *testing.T) {
	testFastForwardEquivalence(t, true, config.LatchHTM)
}

func TestFastForwardEquivalenceDSSHints(t *testing.T) {
	testFastForwardEquivalence(t, false, config.LatchHints)
}

func TestFastForwardEquivalenceDSSHTM(t *testing.T) {
	testFastForwardEquivalence(t, false, config.LatchHTM)
}

func testFastForwardEquivalence(t *testing.T, oltpWorkload bool, lp config.LatchPolicy) {
	t.Helper()
	on := ffRun(t, oltpWorkload, false, config.FaultConfig{}, lp, false)
	off := ffRun(t, oltpWorkload, false, config.FaultConfig{}, lp, true)
	assertIdentical(t, on, off)
	if on.rep.Instructions == 0 {
		t.Fatal("degenerate run: no instructions retired")
	}
}

// TestFastForwardEquivalenceFaults injects the deterministic timing-fault
// profile: NACK/retry storms and stretched latencies reshape exactly the
// idle spans fast-forward skips.
func TestFastForwardEquivalenceFaults(t *testing.T) {
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
	on := ffRun(t, true, false, f, config.LatchPlain, false)
	off := ffRun(t, true, false, f, config.LatchPlain, true)
	assertIdentical(t, on, off)
}

// TestFastForwardEquivalenceTraced runs with the event tracer attached:
// the bulk-applied stall spans and lock-contention windows must yield a
// byte-identical export and identical aggregates.
func TestFastForwardEquivalenceTraced(t *testing.T) {
	on := ffRun(t, true, true, config.FaultConfig{}, config.LatchPlain, false)
	off := ffRun(t, true, true, config.FaultConfig{}, config.LatchPlain, true)
	assertIdentical(t, on, off)
	if onT, offT := on.analysis.Totals(), off.analysis.Totals(); onT != offT {
		t.Errorf("trace aggregate totals differ:\nff-on  %v\nff-off %v", onT, offT)
	}
}

// The two invalidation channels that end a core's skip run from another
// core's tick, each with the tracer attached: under the htm latch policy
// an invalidation aborts a transaction (its abort event and the victim's
// stall span must land where the per-cycle loop puts them), and under SC
// with speculative loads it marks a load violated and pokes the core.
func TestFastForwardEquivalenceTracedHTM(t *testing.T) {
	on := testFastForwardEquivalenceTraced(t, config.Default(), config.LatchHTM)
	if on.rep.HTMConflictAborts == 0 {
		t.Fatal("degenerate run: no transaction aborted by an invalidation")
	}
}

func TestFastForwardEquivalenceTracedSpec(t *testing.T) {
	cfg := config.Default()
	cfg.Consistency = config.SC
	cfg.ConsistencyOpts = config.ImplSpeculative
	testFastForwardEquivalenceTraced(t, cfg, config.LatchPlain)
}

func testFastForwardEquivalenceTraced(t *testing.T, cfg config.Config, lp config.LatchPolicy) ffResult {
	t.Helper()
	on := ffRunConfig(t, cfg, true, true, config.FaultConfig{}, lp, false)
	off := ffRunConfig(t, cfg, true, true, config.FaultConfig{}, lp, true)
	assertIdentical(t, on, off)
	if onT, offT := on.analysis.Totals(), off.analysis.Totals(); onT != offT {
		t.Errorf("trace aggregate totals differ:\nff-on  %v\nff-off %v", onT, offT)
	}
	return on
}
