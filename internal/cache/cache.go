// Package cache implements the cache structures of the simulated memory
// hierarchy: set-associative write-allocate write-back caches with MESI line
// states (L1 instruction, dual-ported L1 data, and a pipelined unified L2),
// miss status holding registers (MSHRs) that coalesce requests to the same
// line and bound the number of outstanding misses, and the instruction
// stream buffer evaluated in Section 4.1 of the paper.
package cache

import (
	"fmt"
	"math/bits"
)

// State is a MESI line state.
type State uint8

const (
	// Invalid means the line is not present.
	Invalid State = iota
	// Shared means a read-only copy, possibly also cached elsewhere.
	Shared
	// Exclusive means the only cached copy, clean.
	Exclusive
	// Modified means the only cached copy, dirty.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// line is one cache way packed into a 4-byte word: the high part of the
// line address (paddr >> lineShift >> the set-index bits; the way's set
// supplies the rest) in the top bits, the way's LRU rank within its set in
// the middle bits, and the MESI state in the low two bits. Rank 0 marks a
// way that has never been filled; filled ways hold ranks 1..k (1 = most
// recently used), so the zero word is an empty way and a new cache needs
// no initialization beyond make. An invalidated way keeps its rank: the
// victim choice prefers any invalid way, so where an invalid way sits in
// the recency order never shows.
type line uint32

const (
	stateBits = 2
	rankBits  = 5
	rankShift = stateBits
	tagShift  = stateBits + rankBits
	tagBits   = 32 - tagShift

	stateMask line = 1<<stateBits - 1
	rankMask  line = (1<<rankBits - 1) << rankShift
	rankOne   line = 1 << rankShift

	// maxTag is the largest line address, above the set-index bits, that
	// the tag field can hold.
	maxTag = 1<<tagBits - 1

	// MaxAssoc is the largest associativity the rank field can hold.
	MaxAssoc = 1<<rankBits - 1
)

func (l line) state() State { return State(l & stateMask) }
func (l line) tag() uint64  { return uint64(l >> tagShift) }

// holds reports whether the way is valid and caches the line whose address
// above the set-index bits is tag.
func (l line) holds(tag uint64) bool { return l&stateMask != 0 && l.tag() == tag }

// Cache is one level of a cache hierarchy. It stores tags and MESI states
// only (the simulator is timing-only; data values live in the workload
// model). Not safe for concurrent use.
type Cache struct {
	name      string
	sets      int
	assoc     int
	lineShift uint
	setShift  uint // log2(sets)
	lines     []line

	// Statistics.
	Reads       uint64
	ReadMisses  uint64
	Writes      uint64
	WriteMisses uint64
}

// New builds a cache. sizeBytes/assoc/lineBytes must describe a power-of-two
// set count, and assoc may not exceed MaxAssoc; name is used in error
// messages and dumps.
func New(name string, sizeBytes, assoc, lineBytes int) (*Cache, error) {
	if assoc <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache %s: invalid geometry (assoc %d, line %d)", name, assoc, lineBytes)
	}
	if assoc > MaxAssoc {
		return nil, fmt.Errorf("cache %s: associativity %d exceeds the maximum %d (the LRU rank field is %d bits)",
			name, assoc, MaxAssoc, rankBits)
	}
	sets := sizeBytes / (assoc * lineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
		if shift > 30 {
			return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineBytes)
		}
	}
	return &Cache{
		name:      name,
		sets:      sets,
		assoc:     assoc,
		lineShift: shift,
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		lines:     make([]line, sets*assoc),
	}, nil
}

// LineAddr returns the line address for a physical address.
func (c *Cache) LineAddr(paddr uint64) uint64 { return paddr >> c.lineShift }

// LineShift returns log2(line size).
func (c *Cache) LineShift() uint { return c.lineShift }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// MaxLineAddr returns the largest line address the cache can hold: the tag
// field keeps the line address above the set-index bits, so the bound
// grows with the set count.
func (c *Cache) MaxLineAddr() uint64 { return uint64(c.sets)<<tagBits - 1 }

// set returns the ways of the set line address la maps to and la's tag,
// its address above the set-index bits.
func (c *Cache) set(la uint64) ([]line, uint64) {
	base := int(la&uint64(c.sets-1)) * c.assoc
	return c.lines[base : base+c.assoc : base+c.assoc], la >> c.setShift
}

// lineAddrAt rebuilds the full line address of valid way i from its tag
// and the index of the set the way belongs to.
func (c *Cache) lineAddrAt(i int) uint64 {
	return c.lines[i].tag()<<c.setShift | uint64(i/c.assoc)
}

// touch makes way w its set's most recently used way. The filled ways more
// recent than w age by one rank (all filled ways, when w was never filled)
// and w takes rank 1, so the filled ranks stay a permutation of 1..k.
func touch(set []line, w int) {
	r := set[w] & rankMask
	for i, l := range set {
		if lr := l & rankMask; lr != 0 && (lr < r || r == 0) {
			set[i] = l + rankOne
		}
	}
	set[w] = set[w]&^rankMask | rankOne
}

// Lookup probes for the line containing paddr, updating LRU on a hit, and
// returns the line state (Invalid on miss).
func (c *Cache) Lookup(paddr uint64) State {
	set, tag := c.set(c.LineAddr(paddr))
	for w, l := range set {
		if l.holds(tag) {
			if l&rankMask != rankOne {
				touch(set, w)
			}
			return l.state()
		}
	}
	return Invalid
}

// Probe is like Lookup but does not disturb LRU state.
func (c *Cache) Probe(paddr uint64) State {
	set, tag := c.set(c.LineAddr(paddr))
	for _, l := range set {
		if l.holds(tag) {
			return l.state()
		}
	}
	return Invalid
}

// Eviction describes a line displaced by Insert.
type Eviction struct {
	LineAddr uint64
	State    State
	Valid    bool
}

// Insert places the line containing paddr in state st, returning any
// displaced victim (the last invalid way in scan order, else true LRU).
// Inserting a line that is already present just updates its state and LRU
// position. A line address beyond MaxLineAddr does not fit the tag field
// and panics.
func (c *Cache) Insert(paddr uint64, st State) Eviction {
	la := c.LineAddr(paddr)
	set, tag := c.set(la)
	if tag > maxTag {
		panic(fmt.Sprintf("cache %s: line address %#x overflows the %d-bit tag field", c.name, la, tagBits))
	}
	victim := 0
	for w, l := range set {
		if l.holds(tag) {
			set[w] = l&^stateMask | line(st)&stateMask
			if l&rankMask != rankOne {
				touch(set, w)
			}
			return Eviction{}
		}
		if l&stateMask == 0 {
			victim = w
		} else if v := set[victim]; v&stateMask != 0 && l&rankMask > v&rankMask {
			victim = w
		}
	}
	ev := Eviction{}
	v := set[victim]
	if v&stateMask != 0 {
		ev = Eviction{LineAddr: v.tag()<<c.setShift | la&uint64(c.sets-1), State: v.state(), Valid: true}
	}
	set[victim] = line(tag)<<tagShift | v&rankMask | line(st)&stateMask
	touch(set, victim)
	return ev
}

// SetState changes the state of a resident line (no-op if absent). Used for
// downgrades (M->S on sharing write-back) and upgrades (S->M).
func (c *Cache) SetState(paddr uint64, st State) {
	set, tag := c.set(c.LineAddr(paddr))
	for w, l := range set {
		if l.holds(tag) {
			set[w] = l&^stateMask | line(st)&stateMask
			return
		}
	}
}

// Invalidate removes the line containing paddr, returning its prior state.
func (c *Cache) Invalidate(paddr uint64) State {
	set, tag := c.set(c.LineAddr(paddr))
	for w, l := range set {
		if l.holds(tag) {
			set[w] = l &^ stateMask
			return l.state()
		}
	}
	return Invalid
}

// ResidentLines returns the number of valid lines (for tests/invariants).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, l := range c.lines {
		if l&stateMask != 0 {
			n++
		}
	}
	return n
}

// VisitResident calls f for each valid line address and state.
func (c *Cache) VisitResident(f func(lineAddr uint64, st State)) {
	for i, l := range c.lines {
		if l&stateMask != 0 {
			f(c.lineAddrAt(i), l.state())
		}
	}
}

// MissRate returns (read+write misses) / (read+write accesses).
func (c *Cache) MissRate() float64 {
	acc := c.Reads + c.Writes
	if acc == 0 {
		return 0
	}
	return float64(c.ReadMisses+c.WriteMisses) / float64(acc)
}

// RecordAccess updates hit/miss statistics for an access of the given kind.
func (c *Cache) RecordAccess(write, miss bool) {
	if write {
		c.Writes++
		if miss {
			c.WriteMisses++
		}
	} else {
		c.Reads++
		if miss {
			c.ReadMisses++
		}
	}
}
