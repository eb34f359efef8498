package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
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

// ffResult is what one arm of an equivalence test produced: the report,
// the telemetry JSONL bytes, and (when traced) the exported Chrome trace
// and the trace aggregate totals. The trace is kept as its length and
// SHA-256 digest: a traced ffScale export is 58–68 MB, too much to hold
// for every shared baseline.
type ffResult struct {
	rep      *stats.Report
	jsonl    []byte
	trace    [sha256.Size]byte
	traceLen int
	totals   stats.Breakdown
}

// arm is one run of an equivalence test (fast-forward, checkpoint or
// SimThreads): the workload on machine cfg at ffScale, with telemetry
// every armTelemetryInterval cycles into a buffer and an optional tracer,
// checkpoint factory, restore file and context. Every arm runs under the
// one run label armLabel (stamped on each telemetry sample), so arms of
// different suites that simulate the same machine produce the same bytes.
type arm struct {
	oltp      bool
	cfg       config.Config
	faults    config.FaultConfig
	traced    bool
	disableFF bool

	ctx             context.Context
	checkpoint      func(label string) *core.CheckpointOptions
	restore         string
	restoreFallback func(label string, err error)
}

const (
	armLabel             = "equivalence"
	armTelemetryInterval = 50_000
)

// run runs the arm. It reports errors instead of failing the test so it
// can run on goroutines other than the test's own, and so interrupted
// arms can return their cancellation.
func (a arm) run() (ffResult, error) {
	sc := ffScale()
	sc.Faults = a.faults
	sc.DisableFastForward = a.disableFF
	sc.Context = a.ctx
	sc.Checkpoint = a.checkpoint
	sc.Restore = a.restore
	sc.RestoreFallback = a.restoreFallback

	var jsonl bytes.Buffer
	sc.Telemetry = func(label string) *telemetry.Pipeline {
		pipe := telemetry.New(armTelemetryInterval)
		pipe.Attach(telemetry.NewJSONLSink(nopWriteCloser{&jsonl}), nil)
		return pipe
	}
	var trc *tracing.Tracer
	if a.traced {
		trc = tracing.New(tracing.Options{})
		sc.Tracer = trc
	}

	var res ffResult
	var err error
	if a.oltp {
		res.rep, err = RunOLTP(a.cfg, sc, armLabel, 0)
	} else {
		res.rep, err = RunDSS(a.cfg, sc, armLabel)
	}
	if err != nil {
		return res, err
	}
	res.jsonl = jsonl.Bytes()
	if a.traced {
		var buf bytes.Buffer
		if err := trc.WriteChrome(&buf); err != nil {
			return res, err
		}
		res.trace, res.traceLen = sha256.Sum256(buf.Bytes()), buf.Len()
		res.totals = trc.Analysis().Totals()
	}
	return res, nil
}

// mustRun runs the arm and fails the test on error.
func (a arm) mustRun(t *testing.T) ffResult {
	t.Helper()
	res, err := a.run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// baselineKey identifies a baseline: the arm fields that change what a
// fast-forward-on, uncheckpointed run produces.
type baselineKey struct {
	oltp   bool
	cfg    config.Config
	faults config.FaultConfig
	traced bool
}

var baselines = struct {
	sync.Mutex
	m map[baselineKey]ffResult
}{m: make(map[baselineKey]ffResult)}

// baseline returns the fast-forward-on, uncheckpointed run of the arm's
// machine, workload, fault profile and tracer setting. Every suite
// compares its arms against these, so each one is simulated once per test
// binary and shared. Callers must not modify the result.
func (a arm) baseline(t *testing.T) ffResult {
	t.Helper()
	if a.disableFF || a.ctx != nil || a.checkpoint != nil || a.restore != "" {
		t.Fatal("baseline arms run fast-forward on, without checkpointing or a context")
	}
	key := baselineKey{oltp: a.oltp, cfg: a.cfg, faults: a.faults, traced: a.traced}
	baselines.Lock()
	defer baselines.Unlock()
	res, ok := baselines.m[key]
	if !ok {
		res = a.mustRun(t)
		baselines.m[key] = res
	}
	return res
}

// withLatch returns the default machine under latch policy lp.
func withLatch(lp config.LatchPolicy) config.Config {
	cfg := config.Default()
	cfg.LatchPolicy = lp
	return cfg
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
	if on.traceLen != off.traceLen || on.trace != off.trace {
		t.Errorf("exported traces differ (%d vs %d bytes)", on.traceLen, off.traceLen)
	}
}

// ffEquivalence runs the arm with fast-forward on (its shared baseline)
// and off, and asserts the two are identical.
func ffEquivalence(t *testing.T, a arm) (on, off ffResult) {
	t.Helper()
	on = a.baseline(t)
	a.disableFF = true
	off = a.mustRun(t)
	assertIdentical(t, on, off)
	return on, off
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
	on, _ := ffEquivalence(t, arm{oltp: oltpWorkload, cfg: withLatch(lp)})
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
	ffEquivalence(t, arm{oltp: true, cfg: config.Default(), faults: f})
}

// TestFastForwardEquivalenceTraced runs with the event tracer attached:
// the bulk-applied stall spans and lock-contention windows must yield a
// byte-identical export and identical aggregates.
func TestFastForwardEquivalenceTraced(t *testing.T) {
	testFastForwardEquivalenceTraced(t, config.Default(), config.LatchPlain)
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
	cfg.LatchPolicy = lp
	on, off := ffEquivalence(t, arm{oltp: true, cfg: cfg, traced: true})
	if on.totals != off.totals {
		t.Errorf("trace aggregate totals differ:\nff-on  %v\nff-off %v", on.totals, off.totals)
	}
	return on
}
