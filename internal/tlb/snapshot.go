package tlb

import "fmt"

// Checkpoint DTOs. The page table is machine-wide mutable state (first-
// touch homing decides physical addresses, which decide cache indexing
// and directory homes), so it must round-trip exactly; the TLBs carry
// their LRU stamps so replacement decisions after restore match the
// uninterrupted run.

// PageTableState is the dynamic state of a PageTable.
type PageTableState struct {
	PageShift uint
	Entries   map[uint64]PTE
	NextPPN   uint64
}

// Snapshot captures the page table.
func (pt *PageTable) Snapshot() PageTableState {
	s := PageTableState{
		PageShift: pt.pageShift,
		Entries:   make(map[uint64]PTE, len(pt.entries)),
		NextPPN:   pt.nextPPN,
	}
	for vpn, e := range pt.entries {
		s.Entries[vpn] = e
	}
	return s
}

// Restore refills the page table from a snapshot taken with the same
// page size. homeByPPN is derived from the entries.
func (pt *PageTable) Restore(s PageTableState) error {
	if s.PageShift != pt.pageShift {
		return fmt.Errorf("tlb: snapshot page shift %d != configured %d", s.PageShift, pt.pageShift)
	}
	clear(pt.entries)
	clear(pt.homeByPPN)
	for vpn, e := range s.Entries {
		pt.entries[vpn] = e
		pt.homeByPPN[e.PPN] = e.Home
	}
	pt.nextPPN = s.NextPPN
	return nil
}

// TLBEntryState is one TLB way.
type TLBEntryState struct {
	VPN   uint64
	Stamp uint64
	Valid bool
}

// TLBState is the dynamic state of a TLB.
type TLBState struct {
	Entries  []TLBEntryState
	Stamp    uint64
	Accesses uint64
	Misses   uint64
}

// Snapshot captures the TLB.
func (t *TLB) Snapshot() TLBState {
	s := TLBState{
		Entries:  make([]TLBEntryState, len(t.entries)),
		Stamp:    t.stamp,
		Accesses: t.Accesses,
		Misses:   t.Misses,
	}
	for i, e := range t.entries {
		s.Entries[i] = TLBEntryState{VPN: e.vpn, Stamp: e.stamp, Valid: e.valid}
	}
	return s
}

// Restore refills the TLB from a snapshot taken on a TLB of the same
// size. The held translations are not in the snapshot: a TLB filled by
// Translate takes them back from the restored page table with Refill.
func (t *TLB) Restore(s TLBState) error {
	if len(s.Entries) != len(t.entries) {
		return fmt.Errorf("tlb: snapshot has %d entries, configured %d", len(s.Entries), len(t.entries))
	}
	for i, e := range s.Entries {
		t.entries[i] = tlbEntry{vpn: e.VPN, stamp: e.Stamp, valid: e.Valid}
	}
	t.stamp = s.Stamp
	t.Accesses = s.Accesses
	t.Misses = s.Misses
	return nil
}

// Refill sets each valid entry's held translation from page table pt. A
// valid entry for a page pt has not mapped is an error: Translate maps a
// page before any TLB holds it.
func (t *TLB) Refill(pt *PageTable) error {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		pte, ok := pt.entries[e.vpn]
		if !ok {
			return fmt.Errorf("tlb: snapshot holds page %#x, which the page table does not map", e.vpn)
		}
		e.pte = pte
	}
	return nil
}
