package tracing

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestStallSpanCoalescing(t *testing.T) {
	tr := New(Options{})
	tr.Start(100)
	// Three consecutive stall cycles at one site coalesce into one span.
	tr.StallSlot(0, 3, 0x40, stats.ReadRemote, 1, 100)
	tr.StallSlot(0, 3, 0x40, stats.ReadRemote, 1, 101)
	tr.StallSlot(0, 3, 0x40, stats.ReadRemote, 0.5, 102)
	// A gap (busy cycle 103) closes the span; cycle 104 opens a new one.
	tr.StallSlot(0, 3, 0x40, stats.ReadRemote, 1, 104)
	// A different site closes again.
	tr.StallSlot(0, 3, 0x44, stats.Sync, 1, 105)
	tr.Finish(106)

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 coalesced spans: %+v", len(evs), evs)
	}
	first := evs[0]
	if first.Kind != KindStall || first.PC != 0x40 || first.Cat != stats.ReadRemote {
		t.Errorf("first span = %+v", first)
	}
	if first.Start != 100 || first.End != 103 || first.Cycles != 2.5 {
		t.Errorf("first span window = [%d,%d) cycles %v, want [100,103) 2.5",
			first.Start, first.End, first.Cycles)
	}
	if evs[1].Start != 104 || evs[1].End != 105 {
		t.Errorf("second span window = [%d,%d), want [104,105)", evs[1].Start, evs[1].End)
	}
	if evs[2].PC != 0x44 || evs[2].Cat != stats.Sync {
		t.Errorf("third span = %+v", evs[2])
	}

	// The profile saw every charged fraction exactly once.
	tot := tr.Analysis().Totals()
	if got := tot[stats.ReadRemote]; got != 3.5 {
		t.Errorf("profile ReadRemote = %v, want 3.5", got)
	}
	if got := tot[stats.Sync]; got != 1 {
		t.Errorf("profile Sync = %v, want 1", got)
	}

	// Finish is idempotent: no duplicate trailing spans.
	tr.Finish(106)
	if n := len(tr.Events()); n != 3 {
		t.Errorf("events after second Finish = %d, want 3", n)
	}
}

func TestRingWrapOverwritesOldest(t *testing.T) {
	tr := New(Options{BufferCap: 4})
	for i := uint64(0); i < 10; i++ {
		tr.Writeback(0, 0x1000+i*64, i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring cap 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Start != want {
			t.Errorf("event %d at cycle %d, want %d (chronological, oldest overwritten)", i, ev.Start, want)
		}
	}
	kept, sampled, overwritten := tr.Stats()
	if kept != 4 || sampled != 0 || overwritten != 6 {
		t.Errorf("Stats() = (%d,%d,%d), want (4,0,6)", kept, sampled, overwritten)
	}
	if got := tr.Analysis().Recorded[KindWriteback]; got != 10 {
		t.Errorf("Recorded = %d, want all 10 despite overwrite", got)
	}
}

func TestSamplingKeepsAggregatesExact(t *testing.T) {
	tr := New(Options{SampleEvery: 3})
	tr.Start(0)
	for i := uint64(0); i < 9; i++ {
		tr.BeginMiss(1, 0x80, i*100, false, false)
		tr.EndMiss(0x4000_0000, i*100+50, uint8(ClassRemote), false, false)
	}
	tr.Finish(1000)
	if n := len(tr.Events()); n != 3 {
		t.Errorf("retained %d raw events, want every 3rd = 3", n)
	}
	// The aggregators saw all 9 misses.
	if got := tr.Analysis().Lat[ClassRemote].Count; got != 9 {
		t.Errorf("latency count = %d, want 9", got)
	}
	if got := tr.Analysis().Recorded[KindMiss]; got != 9 {
		t.Errorf("Recorded misses = %d, want 9", got)
	}
	kept, sampled, _ := tr.Stats()
	if kept != 3 || sampled != 6 {
		t.Errorf("Stats() = kept %d sampled %d, want 3/6", kept, sampled)
	}
}

// endMiss drives one full miss lifecycle through the tracer.
func endMiss(tr *Tracer, node int, line uint64, at uint64, write bool, class Class, protoMig bool) {
	tr.BeginMiss(node, 0x100, at, write, false)
	tr.EndMiss(line, at+300, uint8(class), protoMig, false)
}

func TestMigratoryClassification(t *testing.T) {
	tr := New(Options{})
	tr.Start(0)
	// Line A: RMW handoff — each node reads-then-writes in its tenure.
	for i := 0; i < 6; i++ {
		endMiss(tr, i%2, 0xA000, uint64(i)*1000, true, ClassRemoteDirty, true)
	}
	// Line B: read-only ping-pong — tenures but never ownership.
	for i := 0; i < 6; i++ {
		endMiss(tr, i%3, 0xB000, uint64(i)*1000, false, ClassRemoteDirty, false)
	}
	// Line C: single node, repeated writes — one tenure only.
	for i := 0; i < 4; i++ {
		endMiss(tr, 2, 0xC000, uint64(i)*1000, true, ClassLocal, false)
	}
	tr.Finish(10_000)

	an := tr.Analysis()
	a, b, c := an.Lines[0xA000], an.Lines[0xB000], an.Lines[0xC000]
	if a == nil || b == nil || c == nil {
		t.Fatalf("missing line records: %v %v %v", a, b, c)
	}
	if !a.IsMigratory() {
		t.Errorf("line A: tenures=%d owning=%d classified non-migratory, want migratory", a.Tenures, a.OwningTenure)
	}
	if a.Tenures != 6 || a.OwningTenure != 6 {
		t.Errorf("line A tenures = %d/%d owning, want 6/6", a.Tenures, a.OwningTenure)
	}
	if a.ProtocolMigratory != a.DirtyMisses {
		t.Errorf("line A protocol agreement = %d/%d", a.ProtocolMigratory, a.DirtyMisses)
	}
	if b.IsMigratory() {
		t.Errorf("line B: read-only sharing classified migratory (tenures=%d owning=%d)", b.Tenures, b.OwningTenure)
	}
	if c.IsMigratory() {
		t.Errorf("line C: single-node line classified migratory (tenures=%d)", c.Tenures)
	}
	if c.Tenures != 1 {
		t.Errorf("line C tenures = %d, want 1", c.Tenures)
	}

	mig, non, rows := an.MigratorySummary(10)
	if mig.Lines != 1 || non.Lines != 1 {
		t.Errorf("summary lines = %d migratory / %d non, want 1/1 (line C has no dirty misses)", mig.Lines, non.Lines)
	}
	if len(rows) != 2 || rows[0].Line != 0xA000 && rows[1].Line != 0xA000 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestLockHandoffLinks(t *testing.T) {
	tr := New(Options{})
	tr.Start(0)
	tr.LockSpin(0, 0, 0x200, 0x2000_0000, 10)
	tr.LockAcquired(0, 0, 0x200, 0x2000_0000, 25, 30)
	tr.LockReleased(0, 0, 0x2000_0000, 40)
	tr.LockAcquired(1, 1, 0x204, 0x2000_0000, 45, 50)
	tr.Finish(60)

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want acquire/release/acquire", len(evs))
	}
	acq1, rel, acq2 := evs[0], evs[1], evs[2]
	if acq1.Kind != KindLock || acq1.Start != 10 || acq1.End != 30 || acq1.Wait != 15 {
		t.Errorf("first acquire = %+v (want span from first spin, wait 15)", acq1)
	}
	if acq1.Link != 0 {
		t.Errorf("first acquire link = %d, want 0 (no prior release)", acq1.Link)
	}
	if rel.Kind != KindUnlock || rel.Link != acq1.ID {
		t.Errorf("release = %+v, want link to acquire %d", rel, acq1.ID)
	}
	if acq2.Link != rel.ID {
		t.Errorf("second acquire link = %d, want handoff from release %d", acq2.Link, rel.ID)
	}
	if acq2.Wait != 0 {
		t.Errorf("uncontended acquire wait = %d, want 0", acq2.Wait)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := New(Options{})
	tr.SetResolver(func(pc uint64) (string, bool) {
		if pc == 0x40 {
			return "bufget", true
		}
		return "", false
	})
	tr.Start(0)
	tr.RetireSlot(0, 0x40, 0.25)
	tr.StallSlot(0, 2, 0x40, stats.ReadDirty, 0.75, 10)
	tr.StallSlot(0, 2, 0x40, stats.ReadDirty, 1, 11)
	tr.BeginMiss(0, 0x40, 12, true, true)
	tr.MissMSHR(13)
	tr.MissDir(3, 40, 2, 1, 2, 7)
	tr.MissSource(200, 1)
	tr.EndMiss(0x4000_0040, 280, uint8(ClassRemoteDirty), true, false)
	tr.LockAcquired(0, 2, 0x48, 0x2000_0000, 300, 310)
	tr.LockReleased(0, 2, 0x2000_0000, 320)
	tr.Writeback(0, 0x9000, 330)
	tr.Finish(400)
	tr.SetMeta(BreakdownMetaKey, BreakdownToMeta(tr.Analysis().Totals()))

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"thread_name"`, `"cpu0"`, `"dir3"`, `"ph":"s"`, `"bp":"e"`,
		`"dbsimAggregates"`, `"stall:read_dirty"`, `"miss:dirty"`, `"bufget"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}

	tf, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tf.Analysis.Totals(), tr.Analysis().Totals(); got != want {
		t.Errorf("round-tripped totals = %v, want %v", got, want)
	}
	if got := tf.Analysis.Lat[ClassRemoteDirty].Count; got != 1 {
		t.Errorf("round-tripped dirty latency count = %d, want 1", got)
	}
	l := tf.Analysis.Lines[0x4000_0040]
	if l == nil || l.DirtyMisses != 1 || l.WriteMisses != 1 {
		t.Errorf("round-tripped line sharing = %+v", l)
	}
	if got := tf.Resolve(0x40); got != "bufget" {
		t.Errorf("offline resolver = %q, want bufget", got)
	}
	if ref, ok := BreakdownFromMeta(tf.OtherData[BreakdownMetaKey]); !ok {
		t.Error("embedded breakdown not recovered")
	} else if err := ReconcileError(tf.Analysis.Totals(), ref); err != 0 {
		t.Errorf("reconciliation error = %v, want 0", err)
	}
	if _, err := ReadFile(strings.NewReader(`{"traceEvents":[]}`)); err == nil {
		t.Error("a trace file without embedded aggregates was read")
	}
}

func TestResetClearsState(t *testing.T) {
	tr := New(Options{})
	tr.Start(0)
	tr.StallSlot(0, 0, 0x40, stats.Sync, 1, 5)
	endMiss(tr, 0, 0xA000, 10, false, ClassL2, false)
	tr.Reset(100)
	tr.Finish(200)
	if n := len(tr.Events()); n != 0 {
		t.Errorf("events after Reset = %d, want 0", n)
	}
	tot := tr.Analysis().Totals()
	if tot.Total() != 0 {
		t.Errorf("totals after Reset = %v, want empty", tot)
	}
	if tr.Analysis().StartCycle != 100 || tr.Analysis().EndCycle != 200 {
		t.Errorf("window = %d..%d, want 100..200", tr.Analysis().StartCycle, tr.Analysis().EndCycle)
	}
}

func TestNilTracerHooksAreGuarded(t *testing.T) {
	// The simulator guards every hook with a nil check; this documents
	// that the disabled state is the nil pointer, not a no-op object.
	var tr *Tracer
	if tr != nil {
		t.Fatal("nil tracer must stay nil")
	}
}
