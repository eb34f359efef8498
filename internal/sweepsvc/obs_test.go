package sweepsvc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/runner"
)

// ckptImage builds a valid encoded checkpoint image at capture cycle c,
// the way a heartbeat would ship one.
func ckptImage(t *testing.T, c uint64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.ckpt")
	if err := checkpoint.Write(path, checkpoint.Meta{SpecHash: "spec", Cycle: c}, []byte("state")); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// spansByName indexes the stitched spans, asserting each wanted name
// appears exactly once.
func spansByName(t *testing.T, tree *obs.Tree, names ...string) map[string]obs.Span {
	t.Helper()
	count := map[string]int{}
	out := map[string]obs.Span{}
	for _, sp := range tree.AllSpans() {
		count[sp.Name]++
		out[sp.Name] = sp
	}
	for _, n := range names {
		if count[n] != 1 {
			t.Fatalf("span %q appears %d times, want exactly 1", n, count[n])
		}
	}
	return out
}

// TestTakeoverSpanChain drives the chaos path — lease to w1, shipped
// checkpoint, w1 dies (lease expires), w2 takes over and reports — and
// asserts the span log records the expiry → re-lease → takeover → report
// chain as one connected tree on the original job trace.
func TestTakeoverSpanChain(t *testing.T) {
	dir := t.TempDir()
	spanPath := filepath.Join(dir, "sweepd.spans.jsonl")
	spans, err := obs.OpenSpanLog(spanPath, "sweepd")
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	m, err := NewManager(ManagerOptions{
		LedgerPath: filepath.Join(dir, "ledger.jsonl"),
		LeaseTTL:   10 * time.Second,
		Now:        clock.Now,
		Logger:     testLogger(t),
		Spans:      spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Client-side root span, as cmd/sweep -remote mints it.
	rootSC := spans.Emit(obs.SpanContext{}, "job", clock.Now(), clock.Now(), nil)
	req := &SubmitRequest{
		JobID:  "j",
		Trace:  &rootSC,
		Points: []JobPoint{{ID: "p0", Spec: specOf("p0", 0)}},
	}
	if _, err := m.Submit(req); err != nil {
		t.Fatal(err)
	}
	hash := req.Points[0].Hash()

	lease1 := m.Lease("w1", "")
	if lease1.Point == nil {
		t.Fatal("w1 got no point")
	}
	if lease1.Trace == nil || lease1.Trace.Trace != rootSC.Trace {
		t.Fatalf("lease1.Trace = %+v, want trace %s propagated", lease1.Trace, rootSC.Trace)
	}
	if _, err := m.Renew("w1", hash, map[string][]byte{"p0.state.ckpt": ckptImage(t, 7)}); err != nil {
		t.Fatal(err)
	}

	// w1 is SIGKILLed: no more heartbeats, the lease lapses.
	clock.Advance(11 * time.Second)
	if n := m.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	lease2 := m.Lease("w2", "")
	if lease2.Point == nil || len(lease2.Checkpoints) == 0 {
		t.Fatal("w2 takeover lease did not carry the shipped checkpoint")
	}
	if lease2.Trace == nil || lease2.Trace.Trace != rootSC.Trace {
		t.Fatalf("takeover lease lost the job trace: %+v", lease2.Trace)
	}
	// w2's run span (normally in the worker's own span log) parents the
	// report back on the server side.
	runSC := spans.Emit(*lease2.Trace, "run", clock.Now(), clock.Now(),
		map[string]string{obs.KeyWorker: "w2"}) // stand-in for the worker log
	if _, err := m.Report("w2", hash, okRecord("p0", hash, map[string]int{"v": 1}), &runSC); err != nil {
		t.Fatal(err)
	}
	if err := spans.Close(); err != nil {
		t.Fatal(err)
	}

	read, err := obs.ReadSpans(spanPath, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	tree := obs.Stitch(read)
	if len(tree.Traces) != 1 || tree.Traces[0] != rootSC.Trace {
		t.Fatalf("traces = %v, want exactly [%s]", tree.Traces, rootSC.Trace)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "job" {
		t.Fatalf("roots = %d (first %q), want the single job root", len(tree.Roots), tree.Roots[0].Name)
	}

	named := spansByName(t, tree, "job", "submit", "expiry", "takeover", "report")
	// Two lease spans exist (issue + re-issue); the chain below pins which
	// is which through parent links.
	var leaseSpans []obs.Span
	for _, sp := range tree.AllSpans() {
		if sp.Name == "lease" {
			leaseSpans = append(leaseSpans, sp)
		}
		if sp.Trace != rootSC.Trace {
			t.Fatalf("span %s/%s escaped the job trace", sp.Name, sp.ID)
		}
	}
	if len(leaseSpans) != 2 {
		t.Fatalf("got %d lease spans, want 2 (issue + takeover re-issue)", len(leaseSpans))
	}
	if named["expiry"].Parent != leaseSpans[0].ID {
		t.Fatalf("expiry parent = %s, want first lease span %s", named["expiry"].Parent, leaseSpans[0].ID)
	}
	if named["takeover"].Parent != leaseSpans[1].ID {
		t.Fatalf("takeover parent = %s, want takeover lease span %s", named["takeover"].Parent, leaseSpans[1].ID)
	}
	if got := named["takeover"].Attrs[obs.KeyWorker]; got != "w2" {
		t.Fatalf("takeover worker attr = %q, want w2", got)
	}
	if got := named["takeover"].Attrs[obs.KeyCycle]; got != "7" {
		t.Fatalf("takeover cycle attr = %q, want 7 (shipped capture)", got)
	}
	if named["report"].Parent != runSC.Span {
		t.Fatalf("report parent = %s, want the worker run span %s", named["report"].Parent, runSC.Span)
	}
	if named["submit"].Parent != rootSC.Span {
		t.Fatalf("submit parent = %s, want the client job span %s", named["submit"].Parent, rootSC.Span)
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("%d orphaned spans; chain must stay connected through the takeover", len(tree.Orphans))
	}
}

// TestProvenanceRoundTrip pushes one provenance record through every
// durable hop — reported record → ledger (sweepd restart replay) → merged
// results API — and asserts the fields survive byte-stable, while the
// canonical merged FILE strips provenance so local/remote byte identity
// holds.
func TestProvenanceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	clock := newFakeClock()
	m := newTestManager(t, clock, ledger)

	req := &SubmitRequest{
		JobID:      "j",
		Provenance: obs.Collect("sweep", []string{"-all"}),
		Points:     []JobPoint{{ID: "p0", Spec: specOf("p0", 0)}},
	}
	if _, err := m.Submit(req); err != nil {
		t.Fatal(err)
	}
	hash := req.Points[0].Hash()
	if lr := m.Lease("w1", ""); lr.Point == nil {
		t.Fatal("no lease")
	}

	prov := obs.Collect("sweepworker", []string{"-name", "w1"})
	prov.SpecHash = hash
	prov.Worker = "w1"
	prov.Trace = "0123456789abcdef"
	want, err := json.Marshal(prov)
	if err != nil {
		t.Fatal(err)
	}

	rec := okRecord("p0", hash, map[string]int{"v": 42})
	rec.Provenance = prov
	if _, err := m.Report("w1", hash, rec, nil); err != nil {
		t.Fatal(err)
	}

	// Hop 1: live merged results carry it.
	res, err := m.Merged("j")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res.Points[0].Provenance)
	if !bytes.Equal(got, want) {
		t.Fatalf("live merged provenance drifted:\n got %s\nwant %s", got, want)
	}

	// Hop 2: restart sweepd on the same ledger; the replayed record must
	// carry identical bytes.
	m.Close()
	m2 := newTestManager(t, clock, ledger)
	res2, err := m2.Merged("j")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := json.Marshal(res2.Points[0].Provenance)
	if !bytes.Equal(got2, want) {
		t.Fatalf("replayed provenance drifted:\n got %s\nwant %s", got2, want)
	}
	if res2.Points[0].Provenance.SpecHash != hash || res2.Points[0].Provenance.Worker != "w1" {
		t.Fatalf("replayed provenance lost identity: %+v", res2.Points[0].Provenance)
	}

	// Hop 3: the journal Record form itself (what a local sweep writes) is
	// byte-stable through a marshal/unmarshal cycle.
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back runner.Record
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	got3, _ := json.Marshal(back.Provenance)
	if !bytes.Equal(got3, want) {
		t.Fatalf("journal-form provenance drifted:\n got %s\nwant %s", got3, want)
	}

	// The canonical merged FILE is the byte-identity surface shared by
	// local and remote sweeps: provenance (inherently run-specific) must
	// be stripped from it.
	var buf bytes.Buffer
	if err := WriteMerged(&buf, res2.Points); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "provenance") {
		t.Fatalf("canonical merged output leaked provenance:\n%s", buf.String())
	}
}
