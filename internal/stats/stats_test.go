package stats

import (
	"strings"
	"testing"
)

func TestBreakdownArithmetic(t *testing.T) {
	var b Breakdown
	b[Busy] = 10
	b[CPUStall] = 5
	b[Instr] = 20
	b[ReadL2] = 30
	b[ReadDirty] = 15
	b[Write] = 3
	b[Sync] = 2
	if got := b.Total(); got != 85 {
		t.Errorf("Total = %f", got)
	}
	if got := b.CPU(); got != 15 {
		t.Errorf("CPU = %f", got)
	}
	if got := b.Read(); got != 45 {
		t.Errorf("Read = %f", got)
	}
	if got := b.Data(); got != 48 {
		t.Errorf("Data = %f", got)
	}
	var c Breakdown
	c.Add(&b)
	c.Add(&b)
	if c.Total() != 170 {
		t.Errorf("Add: total = %f", c.Total())
	}
}

func TestCategoryNames(t *testing.T) {
	if Busy.String() != "busy" || ReadDirty.String() != "read_dirty" || Sync.String() != "sync" {
		t.Error("category names wrong")
	}
	if !ReadL1.IsRead() || !ReadDTLB.IsRead() || Busy.IsRead() || Write.IsRead() {
		t.Error("IsRead misclassifies")
	}
	if !strings.Contains(Category(99).String(), "99") {
		t.Error("unknown category should show value")
	}
}

func TestNormalization(t *testing.T) {
	base := &Report{Label: "base"}
	base.Breakdown[Busy] = 50
	base.Breakdown[ReadL2] = 50
	half := &Report{Label: "half"}
	half.Breakdown[Busy] = 25
	half.Breakdown[ReadL2] = 25
	n := half.Normalized(base)
	if n.Total() != 0.5 {
		t.Errorf("normalized total = %f, want 0.5", n.Total())
	}
	if n[Busy] != 0.25 {
		t.Errorf("normalized busy = %f", n[Busy])
	}
	var empty Report
	if z := half.Normalized(&empty); z.Total() != 0 {
		t.Error("normalizing against zero base should give zeros")
	}
}

func TestIPC(t *testing.T) {
	r := &Report{Cycles: 1000, Instructions: 2000, IdleCycles: 0}
	if got := r.IPC(4); got != 0.5 {
		t.Errorf("IPC = %f, want 0.5", got)
	}
	r.IdleCycles = 2000 // 4000 cpu-cycles - 2000 idle = 2000 busy
	if got := r.IPC(4); got != 1.0 {
		t.Errorf("IPC with idle = %f, want 1.0", got)
	}
	r.IdleCycles = 5000
	if got := r.IPC(4); got != 0 {
		t.Errorf("over-idle IPC = %f, want 0", got)
	}
}

func mkReport(label string, busy, read float64) *Report {
	r := &Report{Label: label}
	r.Breakdown[Busy] = busy
	r.Breakdown[ReadDirty] = read
	return r
}

func TestFormatBreakdownTable(t *testing.T) {
	if FormatBreakdownTable(nil) != "" {
		t.Error("empty input should render nothing")
	}
	out := FormatBreakdownTable([]*Report{mkReport("a", 60, 40), mkReport("b", 30, 20)})
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatal("labels missing")
	}
	if !strings.Contains(out, "1.000") || !strings.Contains(out, "0.500") {
		t.Errorf("normalization wrong:\n%s", out)
	}
}

func TestFormatReadStallTable(t *testing.T) {
	out := FormatReadStallTable([]*Report{mkReport("x", 50, 50)})
	if !strings.Contains(out, "dirty") || !strings.Contains(out, "0.5000") {
		t.Errorf("read stall table wrong:\n%s", out)
	}
	if FormatReadStallTable(nil) != "" {
		t.Error("empty input should render nothing")
	}
}

func TestFormatOccupancyTable(t *testing.T) {
	out := FormatOccupancyTable([]string{"L1"}, [][]float64{{0, 1.0, 0.25}})
	if !strings.Contains(out, "L1") || !strings.Contains(out, "0.250") {
		t.Errorf("occupancy table wrong:\n%s", out)
	}
}

// TestZeroTotalRendering pins down percent/normalized rendering against a
// zero-total base: no NaN or Inf may leak into the tables, and Normalized
// must return all zeros rather than divide by zero.
func TestZeroTotalRendering(t *testing.T) {
	zero := &Report{Label: "zero"}
	nonzero := mkReport("nonzero", 60, 40)
	if n := nonzero.Normalized(zero); n != (Breakdown{}) {
		t.Errorf("Normalized against zero base = %v, want all zeros", n)
	}
	for name, out := range map[string]string{
		"breakdown": FormatBreakdownTable([]*Report{zero, nonzero}),
		"readstall": FormatReadStallTable([]*Report{zero, nonzero}),
		"speedup":   SpeedupTable([]*Report{zero, nonzero}),
	} {
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s table with zero-total base renders NaN/Inf:\n%s", name, out)
		}
	}
}

// TestBreakdownSub covers the interval-delta path used by telemetry: plain
// deltas, and the clamp that guards against counters moving backwards when
// warm-up resets statistics mid-interval.
func TestBreakdownSub(t *testing.T) {
	var prev, cur Breakdown
	prev[Busy], cur[Busy] = 10, 35
	prev[ReadL2], cur[ReadL2] = 5, 5
	d := cur.Sub(&prev)
	if d[Busy] != 25 || d[ReadL2] != 0 {
		t.Errorf("Sub = %v, want busy 25, read_L2 0", d)
	}
	// Counter went backwards (stats reset): clamp to zero, never negative.
	prev[Sync], cur[Sync] = 100, 3
	d = cur.Sub(&prev)
	if d[Sync] != 0 {
		t.Errorf("negative delta not clamped: got %f", d[Sync])
	}
	for i := range d {
		if d[i] < 0 {
			t.Errorf("category %v delta is negative: %f", Category(i), d[i])
		}
	}
}

// TestCategoryRoundTrip checks String and ParseCategory are inverses over
// every category, and that ParseCategory rejects junk.
func TestCategoryRoundTrip(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		got, ok := ParseCategory(c.String())
		if !ok || got != c {
			t.Errorf("ParseCategory(%q) = %v, %v; want %v, true", c.String(), got, ok, c)
		}
	}
	for _, bad := range []string{"", "bogus", "Busy", "category(99)"} {
		if _, ok := ParseCategory(bad); ok {
			t.Errorf("ParseCategory(%q) accepted junk", bad)
		}
	}
}

// TestHTMCategories pins down the HTM abort/stall categories: the
// tracing package (traceview, Chrome trace import and stall profiles)
// parses category names from trace aggregates, so each new name must
// round-trip through ParseCategory rather than fall into "other", and the
// aggregate helpers must include them.
func TestHTMCategories(t *testing.T) {
	for name, want := range map[string]Category{
		"htm_conflict": HTMConflict,
		"htm_capacity": HTMCapacity,
		"htm_explicit": HTMExplicit,
	} {
		got, ok := ParseCategory(name)
		if !ok || got != want {
			t.Errorf("ParseCategory(%q) = %v, %v; want %v, true", name, got, ok, want)
		}
	}
	var b Breakdown
	b[HTMConflict] = 3
	b[HTMCapacity] = 2
	b[HTMExplicit] = 1
	if got := b.HTM(); got != 6 {
		t.Errorf("HTM() = %f, want 6", got)
	}
	if b.Total() != 6 {
		t.Errorf("Total() = %f, want 6 (HTM categories must count)", b.Total())
	}
	r := &Report{HTMConflictAborts: 5, HTMCapacityAborts: 4, HTMExplicitAborts: 3}
	if r.HTMAborts() != 12 {
		t.Errorf("HTMAborts() = %d, want 12", r.HTMAborts())
	}
	out := FormatBreakdownTable([]*Report{mkReport("a", 60, 40)})
	if !strings.Contains(out, "htm") {
		t.Errorf("breakdown table lacks htm column:\n%s", out)
	}
}

func TestSpeedupTable(t *testing.T) {
	out := SpeedupTable([]*Report{mkReport("base", 100, 0), mkReport("fast", 50, 0)})
	if !strings.Contains(out, "2.000") {
		t.Errorf("speedup table wrong:\n%s", out)
	}
	if SpeedupTable(nil) != "" {
		t.Error("empty input should render nothing")
	}
}

// TestPercentagesZeroTotal checks the NaN guard: an empty breakdown must
// report all-zero percentages, not 0/0.
func TestPercentagesZeroTotal(t *testing.T) {
	var b Breakdown
	p := b.Percentages()
	for i := range p {
		if p[i] != 0 {
			t.Errorf("category %v = %f, want 0 for empty breakdown", Category(i), p[i])
		}
	}

	b[Busy] = 3
	b[Sync] = 1
	p = b.Percentages()
	if p[Busy] != 75 || p[Sync] != 25 {
		t.Errorf("percentages = busy %f sync %f, want 75/25", p[Busy], p[Sync])
	}
}
