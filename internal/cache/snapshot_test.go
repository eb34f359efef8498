package cache

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// run applies ops to c and returns what each returned.
func run(c cacheLike, ops []cacheOp) []opResult {
	out := make([]opResult, len(ops))
	for i, o := range ops {
		out[i] = apply(c, o)
	}
	return out
}

// mixedOps draws a sequence whose first split operations include hits,
// misses, evictions and invalidations of resident lines.
func mixedOps(t *testing.T, c *Cache, seed uint64, n, split int) []cacheOp {
	t.Helper()
	ops := randomOps(rand.New(rand.NewPCG(seed, 7)), c, n)
	probe := newRef(c)
	var hits, misses, evictions, invalidations int
	for _, o := range ops[:split] {
		r := apply(probe, o)
		switch {
		case o.kind == 0 && r.st != Invalid:
			hits++
		case o.kind == 0:
			misses++
		case o.kind == 2 && r.ev.Valid:
			evictions++
		case o.kind == 4 && r.st != Invalid:
			invalidations++
		}
	}
	if hits == 0 || misses == 0 || evictions == 0 || invalidations == 0 {
		t.Fatalf("prefix has %d hits, %d misses, %d evictions, %d invalidations: want all four",
			hits, misses, evictions, invalidations)
	}
	return ops
}

func TestCacheSnapshotRestoreResumes(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8, MaxAssoc} {
		fresh := func() *Cache {
			c, err := New("t", 8*assoc*64, assoc, 64)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c := fresh()
		const n, split = 3000, 1700
		ops := mixedOps(t, c, uint64(assoc), n, split)
		for _, o := range ops[:split] {
			if r := apply(c, o); o.kind == 0 || o.kind == 2 {
				c.RecordAccess(o.kind == 2, r.st == Invalid)
			}
		}
		snap := c.Snapshot()
		want := run(c, ops[split:])

		// Restore over a cache holding other lines: none may survive.
		c2 := fresh()
		run(c2, ops[n/2:])
		if err := c2.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := run(c2, ops[split:]); !slices.Equal(got, want) {
			t.Fatalf("assoc %d: restored cache diverged from the uninterrupted one", assoc)
		}
		if !reflect.DeepEqual(c2.Snapshot(), c.Snapshot()) {
			t.Errorf("assoc %d: final snapshots differ", assoc)
		}
		if c2.Reads != c.Reads || c2.ReadMisses != c.ReadMisses || c2.Writes != c.Writes || c2.WriteMisses != c.WriteMisses {
			t.Errorf("assoc %d: restored counters %d/%d/%d/%d, uninterrupted %d/%d/%d/%d", assoc,
				c2.Reads, c2.ReadMisses, c2.Writes, c2.WriteMisses, c.Reads, c.ReadMisses, c.Writes, c.WriteMisses)
		}
	}
}

// TestRestoreGlobalStamps: an image whose stamps are a cache-wide counter
// (as the stamp-based cache wrote them) restores to the same LRU order.
func TestRestoreGlobalStamps(t *testing.T) {
	for _, assoc := range []int{2, 4, 8, MaxAssoc} {
		c, _ := New("t", 8*assoc*64, assoc, 64)
		ref := newRef(c)
		const n, split = 3000, 1500
		ops := mixedOps(t, c, 100+uint64(assoc), n, split)
		run(ref, ops[:split])
		if err := c.Restore(ref.snapshot(1e9)); err != nil {
			t.Fatal(err)
		}
		for i, o := range ops[split:] {
			if got, want := apply(c, o), apply(ref, o); got != want {
				t.Fatalf("assoc %d step %d: %v = %+v, reference %+v", assoc, split+i, o, got, want)
			}
		}
		if !slices.Equal(residentOf(c), ref.resident()) {
			t.Errorf("assoc %d: resident lines differ from the reference", assoc)
		}
	}
}

func TestCacheRestoreRejects(t *testing.T) {
	c, _ := New("t", 8192, 2, 64)
	c.Insert(0x1000, Modified)
	good := c.Snapshot()

	other, _ := New("t", 8192, 4, 64)
	if err := other.Restore(good); err == nil {
		t.Error("restore accepted a snapshot with a different geometry")
	}
	bad := func(name string, mut func(*LineState)) {
		s := c.Snapshot()
		mut(&s.Lines[0])
		if err := c.Restore(s); err == nil {
			t.Errorf("restore accepted a line with %s", name)
		}
	}
	bad("a negative way", func(l *LineState) { l.Way = -1 })
	bad("a way past the end", func(l *LineState) { l.Way = 128 })
	bad("the Invalid state", func(l *LineState) { l.St = uint8(Invalid) })
	bad("an unknown state", func(l *LineState) { l.St = 4 })
	// Keeps the line's set, so only the tag-width check can reject it.
	bad("an oversized tag", func(l *LineState) { l.Tag += c.MaxLineAddr() + 1 })
	bad("a tag from another set", func(l *LineState) { l.Tag++ })

	c.Insert(0x2000, Shared)
	dup := c.Snapshot()
	dup.Lines = append(dup.Lines, dup.Lines[1])
	if err := c.Restore(dup); err == nil {
		t.Error("restore accepted two lines in one way")
	}
	swapped := c.Snapshot()
	swapped.Lines[0], swapped.Lines[1] = swapped.Lines[1], swapped.Lines[0]
	if err := c.Restore(swapped); err == nil {
		t.Error("restore accepted lines out of way order")
	}
	if err := c.Restore(good); err != nil || c.ResidentLines() != 1 {
		t.Fatalf("valid snapshot: err %v, %d resident lines, want 1", err, c.ResidentLines())
	}
}
