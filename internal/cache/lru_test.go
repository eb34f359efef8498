package cache

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// refCache is the stamp-based cache the packed line replaced: 24-byte ways
// holding a tag, a cache-wide LRU stamp and a state. It is the reference
// model the packed cache must match operation for operation.
type refCache struct {
	sets, assoc int
	lineShift   uint
	lines       []refLine
	stamp       uint64
}

type refLine struct {
	tag   uint64
	stamp uint64
	state State
}

func newRef(c *Cache) *refCache {
	return &refCache{sets: c.sets, assoc: c.assoc, lineShift: c.lineShift, lines: make([]refLine, len(c.lines))}
}

func (r *refCache) find(paddr uint64) *refLine {
	la := paddr >> r.lineShift
	base := int(la%uint64(r.sets)) * r.assoc
	for w := 0; w < r.assoc; w++ {
		if l := &r.lines[base+w]; l.state != Invalid && l.tag == la {
			return l
		}
	}
	return nil
}

func (r *refCache) Lookup(paddr uint64) State {
	if l := r.find(paddr); l != nil {
		r.stamp++
		l.stamp = r.stamp
		return l.state
	}
	return Invalid
}

func (r *refCache) Probe(paddr uint64) State {
	if l := r.find(paddr); l != nil {
		return l.state
	}
	return Invalid
}

func (r *refCache) Insert(paddr uint64, st State) Eviction {
	la := paddr >> r.lineShift
	base := int(la%uint64(r.sets)) * r.assoc
	r.stamp++
	victim := base
	for w := 0; w < r.assoc; w++ {
		l := &r.lines[base+w]
		if l.state != Invalid && l.tag == la {
			l.state = st
			l.stamp = r.stamp
			return Eviction{}
		}
		if l.state == Invalid {
			victim = base + w
		} else if r.lines[victim].state != Invalid && l.stamp < r.lines[victim].stamp {
			victim = base + w
		}
	}
	ev := Eviction{}
	v := &r.lines[victim]
	if v.state != Invalid {
		ev = Eviction{LineAddr: v.tag, State: v.state, Valid: true}
	}
	*v = refLine{tag: la, stamp: r.stamp, state: st}
	return ev
}

func (r *refCache) SetState(paddr uint64, st State) {
	if l := r.find(paddr); l != nil {
		l.state = st
	}
}

func (r *refCache) Invalidate(paddr uint64) State {
	if l := r.find(paddr); l != nil {
		st := l.state
		l.state = Invalid
		return st
	}
	return Invalid
}

type resident struct {
	la uint64
	st State
}

func (r *refCache) resident() []resident {
	var out []resident
	for _, l := range r.lines {
		if l.state != Invalid {
			out = append(out, resident{l.tag, l.state})
		}
	}
	return out
}

// snapshot exports the reference model's lines the way the stamp-based
// cache wrote checkpoints: cache-wide stamps, offset by off.
func (r *refCache) snapshot(off uint64) CacheState {
	s := CacheState{Sets: r.sets, Assoc: r.assoc, Stamp: r.stamp + off}
	for i, l := range r.lines {
		if l.state != Invalid {
			s.Lines = append(s.Lines, LineState{Way: i, Tag: l.tag, Stamp: l.stamp + off, St: uint8(l.state)})
		}
	}
	return s
}

func residentOf(c *Cache) []resident {
	var out []resident
	c.VisitResident(func(la uint64, st State) { out = append(out, resident{la, st}) })
	return out
}

// cacheOp is one step of a random operation sequence.
type cacheOp struct {
	kind  int // 0 Lookup, 1 Probe, 2 Insert, 3 SetState, 4 Invalidate
	paddr uint64
	st    State
}

func (o cacheOp) String() string {
	return [...]string{"Lookup", "Probe", "Insert", "SetState", "Invalidate"}[o.kind]
}

// randomOps draws n operations over three times as many distinct lines as
// the cache holds, weighted towards Lookup and Insert so sets fill, hit,
// age and evict. Addresses carry a random offset within the line.
func randomOps(rng *rand.Rand, c *Cache, n int) []cacheOp {
	lines := 3 * c.sets * c.assoc
	ops := make([]cacheOp, n)
	for i := range ops {
		o := cacheOp{paddr: uint64(rng.IntN(lines))<<c.lineShift | uint64(rng.IntN(1<<c.lineShift))}
		switch k := rng.IntN(10); {
		case k < 4:
			o.kind = 0
		case k < 5:
			o.kind = 1
		case k < 8:
			o.kind = 2
		case k < 9:
			o.kind = 3
		default:
			o.kind = 4
		}
		o.st = State(rng.IntN(3) + 1)
		ops[i] = o
	}
	return ops
}

// opResult is what one operation returns.
type opResult struct {
	st State
	ev Eviction
}

type cacheLike interface {
	Lookup(uint64) State
	Probe(uint64) State
	Insert(uint64, State) Eviction
	SetState(uint64, State)
	Invalidate(uint64) State
}

func apply(c cacheLike, o cacheOp) opResult {
	switch o.kind {
	case 0:
		return opResult{st: c.Lookup(o.paddr)}
	case 1:
		return opResult{st: c.Probe(o.paddr)}
	case 2:
		return opResult{ev: c.Insert(o.paddr, o.st)}
	case 3:
		c.SetState(o.paddr, o.st)
		return opResult{}
	}
	return opResult{st: c.Invalidate(o.paddr)}
}

func TestLineIsOneWord(t *testing.T) {
	if n := unsafe.Sizeof(line(0)); n != 4 {
		t.Fatalf("a cache line is %d bytes, want 4", n)
	}
}

// TestPackedMatchesStampModel runs random operation sequences against the
// packed cache and the stamp-based reference model: every returned state
// and eviction, the resident count and the resident lines in way order
// must agree at every step.
func TestPackedMatchesStampModel(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8, MaxAssoc} {
		for _, sets := range []int{1, 4} {
			for seed := uint64(1); seed <= 4; seed++ {
				c, err := New("t", sets*assoc*64, assoc, 64)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRef(c)
				rng := rand.New(rand.NewPCG(seed, uint64(assoc*100+sets)))
				var evictions int
				for i, o := range randomOps(rng, c, 4000) {
					got, want := apply(c, o), apply(ref, o)
					if got != want {
						t.Fatalf("assoc %d sets %d seed %d step %d: %v(%#x, %v) = %+v, reference %+v",
							assoc, sets, seed, i, o, o.paddr, o.st, got, want)
					}
					if got.ev.Valid {
						evictions++
					}
					gr, wr := residentOf(c), ref.resident()
					if !slices.Equal(gr, wr) || c.ResidentLines() != len(wr) {
						t.Fatalf("assoc %d sets %d seed %d step %d: resident %v (%d), reference %v",
							assoc, sets, seed, i, gr, c.ResidentLines(), wr)
					}
				}
				if evictions == 0 {
					t.Fatalf("assoc %d sets %d seed %d: sequence never evicted", assoc, sets, seed)
				}
			}
		}
	}
}

func TestAssocLimit(t *testing.T) {
	if _, err := New("max", MaxAssoc*64*4, MaxAssoc, 64); err != nil {
		t.Fatalf("associativity %d rejected: %v", MaxAssoc, err)
	}
	_, err := New("wide", (MaxAssoc+1)*64*4, MaxAssoc+1, 64)
	if err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
		t.Fatalf("associativity %d: err = %v, want an exceeds-the-maximum error", MaxAssoc+1, err)
	}
}

func TestInsertRefusesTagOverflow(t *testing.T) {
	c, _ := New("t", 8192, 2, 64)
	max := c.MaxLineAddr()
	c.Insert(max<<6, Shared) // the largest line address fits
	if c.Probe(max<<6) != Shared {
		t.Fatal("line at MaxLineAddr not found")
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "overflows") {
			t.Fatalf("panic = %v, want a tag-overflow message", r)
		}
	}()
	c.Insert((max+1)<<6, Shared)
	t.Fatal("Insert accepted a line address beyond the tag field")
}
