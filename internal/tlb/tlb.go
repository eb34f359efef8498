// Package tlb models the virtual-memory structures of the simulated
// machine: fully associative 128-entry instruction and data TLBs with LRU
// replacement, 8KB pages, a bin-hopping virtual-to-physical page mapping
// policy, and first-touch page homing across the CC-NUMA nodes (Figure 1 of
// the paper).
package tlb

import "fmt"

// PTE is one page-table entry.
type PTE struct {
	PPN  uint64 // physical page number
	Home int    // home node owning the page's memory and directory state
}

// PageTable is the machine-wide virtual-to-physical mapping, shared by all
// simulated processes (the Oracle server processes share the SGA mapping).
// Physical pages are handed out sequentially, which implements bin-hopping:
// consecutively touched virtual pages land in consecutive cache bins rather
// than colliding. Pages are homed at the node of the first toucher.
//
// PageTable is not safe for concurrent use; the simulator is single-
// threaded per machine.
type PageTable struct {
	pageShift uint
	entries   map[uint64]PTE
	homeByPPN map[uint64]int
	nextPPN   uint64
}

// NewPageTable returns an empty page table for the given page size, which
// must be a power of two.
func NewPageTable(pageBytes int) (*PageTable, error) {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return nil, fmt.Errorf("tlb: page size %d not a power of two", pageBytes)
	}
	shift := uint(0)
	for 1<<shift != pageBytes {
		shift++
	}
	return &PageTable{
		pageShift: shift,
		entries:   make(map[uint64]PTE),
		homeByPPN: make(map[uint64]int),
	}, nil
}

// PageShift returns log2(page size).
func (pt *PageTable) PageShift() uint { return pt.pageShift }

// VPN returns the virtual page number of vaddr.
func (pt *PageTable) VPN(vaddr uint64) uint64 { return vaddr >> pt.pageShift }

// Translate maps vaddr to a physical address and the page's home node,
// allocating (and first-touch homing at node) on the first reference.
func (pt *PageTable) Translate(vaddr uint64, node int) (paddr uint64, home int) {
	vpn := vaddr >> pt.pageShift
	off := vaddr & ((1 << pt.pageShift) - 1)
	e, ok := pt.entries[vpn]
	if !ok {
		pt.nextPPN++
		e = PTE{PPN: pt.nextPPN, Home: node}
		pt.entries[vpn] = e
		pt.homeByPPN[e.PPN] = node
	}
	return e.PPN<<pt.pageShift | off, e.Home
}

// HomeOfPhys returns the home node of a mapped physical address.
func (pt *PageTable) HomeOfPhys(paddr uint64) (home int, ok bool) {
	home, ok = pt.homeByPPN[paddr>>pt.pageShift]
	return home, ok
}

// Pages returns the number of mapped pages.
func (pt *PageTable) Pages() int { return len(pt.entries) }

// TLB is a fully associative translation buffer with true-LRU replacement.
// Each simulated processor owns separate instruction and data TLBs.
type TLB struct {
	entries []tlbEntry
	stamp   uint64

	Accesses uint64
	Misses   uint64
}

type tlbEntry struct {
	vpn   uint64
	stamp uint64
	valid bool
}

// New returns a TLB with the given number of entries.
func New(entries int) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("tlb: invalid entry count %d", entries)
	}
	return &TLB{entries: make([]tlbEntry, entries)}, nil
}

// Lookup probes the TLB for vpn, inserting it on a miss (evicting the LRU
// entry), and reports whether it hit.
func (t *TLB) Lookup(vpn uint64) bool {
	t.Accesses++
	t.stamp++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.stamp = t.stamp
			return true
		}
	}
	t.Misses++
	// Victim selection only runs on the (rare) miss path: any invalid way,
	// else true LRU. Which invalid way is filled is unobservable — the set
	// of cached pages ends up the same.
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.stamp < t.entries[victim].stamp {
			victim = i
		}
	}
	t.entries[victim] = tlbEntry{vpn: vpn, stamp: t.stamp, valid: true}
	return false
}

// Flush invalidates all entries (used on context switches).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// MissRate returns misses/accesses.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}

// ResetStats zeroes the TLB counters (entries are kept).
func (t *TLB) ResetStats() { t.Accesses, t.Misses = 0, 0 }
