package cache

import "fmt"

// Checkpoint DTOs: the dynamic state of a cache, MSHR file, and stream
// buffer as exported structs the checkpoint payload can gob-encode.
// Geometry (set count, associativity, register count) is rebuilt from
// configuration by the constructors; Restore only refills the dynamic
// state and cross-checks the geometry it was captured under.

// LineState is one valid cache line in a CacheState. Tag is the full line
// address, set-index bits included. Stamp orders the valid lines of one
// set by recency (higher is more recent); only that order within each set
// is meaningful. Snapshot writes 1..k per set, and images written when
// stamps were a cache-wide counter restore to the same LRU order.
type LineState struct {
	Way   int // index into the flat lines array (set*assoc+way)
	Tag   uint64
	Stamp uint64
	St    uint8
}

// CacheState is the dynamic state of a Cache. (The DTO is not named
// State because cache.State is the MESI line state.) Stamp is the retired
// cache-wide LRU counter: Snapshot writes 0 and Restore ignores it.
type CacheState struct {
	Sets, Assoc int // captured geometry, verified on restore
	Lines       []LineState
	Stamp       uint64
	Reads       uint64
	ReadMisses  uint64
	Writes      uint64
	WriteMisses uint64
}

// Snapshot captures the cache's dynamic state.
func (c *Cache) Snapshot() CacheState {
	s := CacheState{
		Sets:        c.sets,
		Assoc:       c.assoc,
		Reads:       c.Reads,
		ReadMisses:  c.ReadMisses,
		Writes:      c.Writes,
		WriteMisses: c.WriteMisses,
	}
	for base := 0; base < len(c.lines); base += c.assoc {
		set := c.lines[base : base+c.assoc]
		for w, l := range set {
			if l&stateMask == 0 {
				continue
			}
			// Recency among the set's valid ways: one more than the
			// number of valid ways used less recently (higher rank).
			stamp := uint64(1)
			for _, o := range set {
				if o&stateMask != 0 && o&rankMask > l&rankMask {
					stamp++
				}
			}
			s.Lines = append(s.Lines, LineState{Way: base + w, Tag: c.lineAddrAt(base + w), Stamp: stamp, St: uint8(l.state())})
		}
	}
	return s
}

// Restore refills the cache from a snapshot taken on an identically
// configured cache, its lines in increasing way order as Snapshot writes
// them. Each set's valid lines take LRU ranks from their stamp order (ties
// go to the lower way); ways without a line are left never-filled, which
// no later access can tell from an invalidated way.
func (c *Cache) Restore(s CacheState) error {
	if s.Sets != c.sets || s.Assoc != c.assoc {
		return fmt.Errorf("cache %s: snapshot geometry %dx%d != configured %dx%d",
			c.name, s.Sets, s.Assoc, c.sets, c.assoc)
	}
	for i, l := range s.Lines {
		switch {
		case l.Way < 0 || l.Way >= len(c.lines):
			return fmt.Errorf("cache %s: snapshot line way %d out of range", c.name, l.Way)
		case i > 0 && l.Way <= s.Lines[i-1].Way:
			return fmt.Errorf("cache %s: snapshot line way %d not above its predecessor %d", c.name, l.Way, s.Lines[i-1].Way)
		case State(l.St) == Invalid || State(l.St) > Modified:
			return fmt.Errorf("cache %s: snapshot line way %d has invalid state %d", c.name, l.Way, l.St)
		case l.Tag > c.MaxLineAddr():
			return fmt.Errorf("cache %s: snapshot line tag %#x overflows the %d-bit tag field", c.name, l.Tag, tagBits)
		case int(l.Tag&uint64(c.sets-1)) != l.Way/c.assoc:
			return fmt.Errorf("cache %s: snapshot line tag %#x maps to set %d, not its way %d's set %d",
				c.name, l.Tag, l.Tag&uint64(c.sets-1), l.Way, l.Way/c.assoc)
		}
	}
	clear(c.lines)
	lines := s.Lines
	for i := 0; i < len(lines); {
		set := lines[i].Way / c.assoc
		j := i + 1
		for j < len(lines) && lines[j].Way/c.assoc == set {
			j++
		}
		group := lines[i:j]
		for _, l := range group {
			rank := 1
			for _, o := range group {
				if o.Stamp > l.Stamp || o.Stamp == l.Stamp && o.Way < l.Way {
					rank++
				}
			}
			c.lines[l.Way] = line(l.Tag>>c.setShift)<<tagShift | line(rank)<<rankShift | line(l.St)
		}
		i = j
	}
	c.Reads = s.Reads
	c.ReadMisses = s.ReadMisses
	c.Writes = s.Writes
	c.WriteMisses = s.WriteMisses
	return nil
}

// MSHRState is the dynamic state of an MSHRFile. Entries are raw (not
// settled/advanced at capture) so the restored file replays the exact
// event order the uninterrupted run would.
type MSHRState struct {
	Max         int
	Entries     []MSHR
	LastEvent   uint64
	OccTime     []uint64
	ReadOccTime []uint64
	Allocations uint64
	Coalesced   uint64
	FullStalls  uint64
}

// Snapshot captures the MSHR file's dynamic state.
func (f *MSHRFile) Snapshot() MSHRState {
	return MSHRState{
		Max:         f.max,
		Entries:     append([]MSHR(nil), f.entries...),
		LastEvent:   f.lastEvent,
		OccTime:     append([]uint64(nil), f.occTime...),
		ReadOccTime: append([]uint64(nil), f.readOccTime...),
		Allocations: f.Allocations,
		Coalesced:   f.Coalesced,
		FullStalls:  f.FullStalls,
	}
}

// Restore refills the MSHR file from a snapshot taken on a file with the
// same register count.
func (f *MSHRFile) Restore(s MSHRState) error {
	if s.Max != f.max {
		return fmt.Errorf("cache: MSHR snapshot has %d registers, configured %d", s.Max, f.max)
	}
	if len(s.Entries) > f.max || len(s.OccTime) != f.max+1 || len(s.ReadOccTime) != f.max+1 {
		return fmt.Errorf("cache: MSHR snapshot shape invalid (%d entries, %d/%d histogram bins)",
			len(s.Entries), len(s.OccTime), len(s.ReadOccTime))
	}
	f.entries = append(f.entries[:0], s.Entries...)
	f.lastEvent = s.LastEvent
	copy(f.occTime, s.OccTime)
	copy(f.readOccTime, s.ReadOccTime)
	f.Allocations = s.Allocations
	f.Coalesced = s.Coalesced
	f.FullStalls = s.FullStalls
	return nil
}

// SBEntryState is one stream-buffer slot.
type SBEntryState struct {
	LineAddr uint64
	Avail    uint64
	Valid    bool
}

// StreamBufState is the dynamic state of a StreamBuffer.
type StreamBufState struct {
	Entries  []SBEntryState
	Hits     uint64
	Misses   uint64
	Issued   uint64
	Useless  uint64
	NextLine uint64
	Active   bool
}

// Snapshot captures the stream buffer's dynamic state (zero value for a
// nil/disabled buffer).
func (b *StreamBuffer) Snapshot() StreamBufState {
	if b == nil {
		return StreamBufState{}
	}
	s := StreamBufState{
		Entries:  make([]SBEntryState, len(b.entries)),
		Hits:     b.Hits,
		Misses:   b.Misses,
		Issued:   b.Issued,
		Useless:  b.Useless,
		NextLine: b.nextLine,
		Active:   b.active,
	}
	for i, e := range b.entries {
		s.Entries[i] = SBEntryState{LineAddr: e.lineAddr, Avail: e.avail, Valid: e.valid}
	}
	return s
}

// Restore refills the stream buffer; the fetch closure stays as wired by
// the constructor. A nil buffer accepts only an empty snapshot.
func (b *StreamBuffer) Restore(s StreamBufState) error {
	if b == nil {
		if len(s.Entries) != 0 {
			return fmt.Errorf("cache: stream-buffer snapshot for a disabled buffer")
		}
		return nil
	}
	if len(s.Entries) != len(b.entries) {
		return fmt.Errorf("cache: stream-buffer snapshot has %d entries, configured %d",
			len(s.Entries), len(b.entries))
	}
	for i, e := range s.Entries {
		b.entries[i] = sbEntry{lineAddr: e.LineAddr, avail: e.Avail, valid: e.Valid}
	}
	b.Hits = s.Hits
	b.Misses = s.Misses
	b.Issued = s.Issued
	b.Useless = s.Useless
	b.nextLine = s.NextLine
	b.active = s.Active
	return nil
}
