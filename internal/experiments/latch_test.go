package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload/oltp"
)

// latchRun is one arm of the latch-policy golden-equivalence test: run a
// workload with the given machine configuration, capturing the report and
// the telemetry JSONL byte stream (the same observables the fast-forward
// equivalence suite compares).
func latchRun(t *testing.T, oltpWorkload bool, cfg config.Config) ffResult {
	t.Helper()
	sc := ffScale()
	var jsonl bytes.Buffer
	sc.Telemetry = func(label string) *telemetry.Pipeline {
		pipe := telemetry.New(50_000)
		pipe.Attach(telemetry.NewJSONLSink(nopWriteCloser{&jsonl}), nil)
		return pipe
	}
	var rep *stats.Report
	var err error
	if oltpWorkload {
		rep, err = RunOLTP(cfg, sc, "latch-equivalence", oltp.HintNone)
	} else {
		rep, err = RunDSS(cfg, sc, "latch-equivalence")
	}
	if err != nil {
		t.Fatal(err)
	}
	return ffResult{rep: rep, jsonl: jsonl.Bytes()}
}

// TestLatchPolicyPlainGolden is the elision-off golden guarantee: a config
// that selects LatchPolicy=plain explicitly must be byte-identical to the
// default config on both workloads — the LatchPolicy seam is a verbatim
// refactor of the pre-elision lock path, so turning the knob to its zero
// value must be a no-op down to every breakdown float and telemetry byte.
func TestLatchPolicyPlainGolden(t *testing.T) {
	for _, w := range []struct {
		name string
		oltp bool
	}{{"OLTP", true}, {"DSS", false}} {
		t.Run(w.name, func(t *testing.T) {
			def := latchRun(t, w.oltp, config.Default())
			cfg := config.Default()
			cfg.LatchPolicy = config.LatchPlain
			explicit := latchRun(t, w.oltp, cfg)
			assertIdentical(t, def, explicit)
			if def.rep.HTMBegins != 0 || def.rep.HTMCommits != 0 || def.rep.HTMAborts() != 0 {
				t.Errorf("plain policy leaked HTM activity: %+v", def.rep)
			}
			if w.oltp && def.rep.LatchAcquires == 0 {
				t.Error("OLTP run recorded no latch acquires")
			}
		})
	}
}

// TestLatchPolicySpecHash: the new latch_policy spec field must react to
// the sweep axis without disturbing the identity of pre-elision specs
// (LatchPlain is omitted from the JSON, so journaled hashes stay valid).
func TestLatchPolicySpecHash(t *testing.T) {
	base := DefaultScale
	h := runner.SpecHash(base.Spec("fig2a"))
	elided := base
	elided.LatchPolicy = config.LatchHTM
	if runner.SpecHash(elided.Spec("fig2a")) == h {
		t.Error("latch policy change did not change the spec hash")
	}
	b, err := base.SpecJSON("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("latch_policy")) {
		t.Errorf("plain-policy spec mentions latch_policy (breaks journaled hashes): %s", b)
	}
}

// TestLatchElisionExperiment runs the ext-htm figure at test scale and
// checks the arms behave like their policies: elision arms speculate,
// plain arms do not, and the stall-attribution table reconciles.
func TestLatchElisionExperiment(t *testing.T) {
	res, err := experiment(t, "ext-htm").Run(ffScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 6 {
		t.Fatalf("want 6 arms, got %d", len(res.Reports))
	}
	oltpHTM := res.Reports[2]
	if oltpHTM.HTMBegins == 0 {
		t.Error("OLTP elision arm never started a transaction")
	}
	if oltpHTM.HTMCommits+oltpHTM.HTMFallbacks == 0 {
		t.Error("OLTP elision arm neither committed nor fell back")
	}
	for _, i := range []int{0, 1, 3, 4} { // plain and hints arms
		r := res.Reports[i]
		if r.HTMBegins != 0 || r.HTMAborts() != 0 {
			t.Errorf("non-elision arm %s shows HTM activity", r.Label)
		}
	}
	joined := strings.Join(res.Tables, "\n")
	if !strings.Contains(joined, "htm latch elision:") {
		t.Error("attribution table missing the HTM lifecycle report")
	}
	if !strings.Contains(joined, "reconcile error") {
		t.Error("attribution table missing the reconciliation line")
	}
}

// TestLatchCapacityExperiment checks the acceptance criterion that the
// capacity-abort rate responds to the configured write-set bound: a
// 1-line bound must see at least as many capacity aborts as a 32-line
// bound, and widening the bound must not lose commits.
func TestLatchCapacityExperiment(t *testing.T) {
	res, err := experiment(t, "ext-htmcap").Run(ffScale())
	if err != nil {
		t.Fatal(err)
	}
	tight, roomy := res.Reports[0], res.Reports[len(res.Reports)-1]
	if tight.HTMBegins == 0 || roomy.HTMBegins == 0 {
		t.Fatal("capacity sweep arms never speculated")
	}
	if tight.HTMCapacityAborts < roomy.HTMCapacityAborts {
		t.Errorf("capacity aborts did not respond to the bound: wset-1 %d < wset-32 %d",
			tight.HTMCapacityAborts, roomy.HTMCapacityAborts)
	}
	if tight.HTMCapacityAborts == 0 {
		t.Error("1-line write-set bound produced no capacity aborts")
	}
	if roomy.HTMCommits < tight.HTMCommits {
		t.Errorf("widening the bound lost commits: wset-32 %d < wset-1 %d",
			roomy.HTMCommits, tight.HTMCommits)
	}
}
