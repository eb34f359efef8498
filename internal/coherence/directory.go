// Package coherence implements the invalidation-based four-state MESI
// full-map directory protocol of the simulated CC-NUMA machine (Section 2.4
// of the paper), including cache-to-cache transfers for dirty lines, the
// "flush"/sharing-write-back primitive of Section 4.2 (which pushes a dirty
// line back to memory while keeping a clean cached copy), and the migratory
// line detection heuristic from the paper's footnote: a line is marked
// migratory when the directory receives a request for exclusive ownership,
// the number of cached copies is 2, and the last writer is not the
// requester (Cox & Fowler / Stenstrom et al.).
//
// The directory is pure protocol state: it decides who supplies data and who
// must be invalidated; the memory system (internal/memsys) performs the
// cache updates and timing.
package coherence

import (
	"fmt"
	"math/bits"
)

// Source says who supplies the data for a transaction.
type Source uint8

const (
	// SrcMemory means the home node's memory supplies the line.
	SrcMemory Source = iota
	// SrcOwnerCache means a dirty copy is forwarded cache-to-cache.
	SrcOwnerCache
	// SrcNone means no data transfer is needed (e.g. S->M upgrade).
	SrcNone
)

const noNode = -1

// MaxNodes is the largest machine the directory can track: each line's
// sharer set is a 64-bit mask, and its owner fields hold a node in an int8.
const MaxNodes = 64

type dirEntry struct {
	sharers    uint64 // bitmask of nodes with a cached copy
	owner      int8   // node holding the line Modified, or noNode
	excl       int8   // node granted a clean Exclusive copy, or noNode
	lastWriter int8   // most recent exclusive owner ever, or noNode
	migratory  bool
	everShared bool // cached by >=2 nodes, or written by >=2 distinct nodes
}

// ReadResult describes how a read (GETS) is serviced.
type ReadResult struct {
	Source    Source
	Owner     int  // supplying node when Source == SrcOwnerCache
	Exclusive bool // granted Exclusive (no other sharers)
	Migratory bool // line was classified migratory
	// MigratoryTransfer: the adaptive migratory protocol handed the reader
	// an exclusive (ownership) copy and invalidated the previous owner, so
	// the reader's upcoming write needs no further coherence action.
	MigratoryTransfer bool
	// Downgrade names a node that held the line clean-Exclusive and must
	// fold its copy to Shared (so it can no longer upgrade silently), or -1.
	Downgrade int
	// Sharers is the number of nodes that cached the line (owner included)
	// when the request arrived, before this transaction changed the state.
	Sharers int
}

// WriteResult describes how a write (GETX/upgrade) is serviced.
type WriteResult struct {
	Source      Source
	Owner       int   // supplying node when Source == SrcOwnerCache
	Invalidates []int // other nodes whose copies must be invalidated
	Migratory   bool  // line classified migratory (after this request)
	WasShared   bool  // the write required coherence action on others
	// Sharers is the number of nodes that cached the line (owner included)
	// when the request arrived, before this transaction changed the state.
	Sharers int
}

// Directory is the machine-wide directory (conceptually distributed across
// home nodes; homing affects timing in memsys, not protocol state). Not
// safe for concurrent use.
type Directory struct {
	entries map[uint64]dirEntry
	invBuf  []int

	// probeDirty asks the memory system whether node's L2 actually holds
	// lineAddr Modified. A node granted a clean Exclusive copy may upgrade
	// it to Modified without a directory transaction (legal MESI); the
	// directory only learns on the next conflicting request, by probing.
	probeDirty func(node int, lineAddr uint64) bool

	// MigratoryOpt enables the adaptive migratory protocol of Cox & Fowler
	// / Stenstrom et al.: reads of lines classified migratory receive an
	// exclusive (ownership) copy, and the previous owner is invalidated,
	// eliminating the reader's subsequent upgrade request. The paper's
	// footnote 2 observes that under a relaxed consistency model this
	// cannot help, because the write latency it saves is already hidden —
	// the ext-migproto experiment reproduces that claim.
	MigratoryOpt bool

	MigratoryTransfers uint64

	// Protocol statistics.
	Reads            uint64
	ReadsDirty       uint64 // serviced cache-to-cache
	Writes           uint64
	WritesShared     uint64 // writes that found other cached copies / prior writers
	Upgrades         uint64
	Writebacks       uint64
	Flushes          uint64
	MigratoryLines   uint64 // lines ever classified migratory
	MigratoryReadsCC uint64 // dirty reads to migratory lines
	MigratoryWrites  uint64 // shared writes to migratory lines
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[uint64]dirEntry)}
}

// Lines returns the number of lines with directory state.
func (d *Directory) Lines() int { return len(d.entries) }

// Sharers returns the number of nodes caching the line (tests/invariants).
func (d *Directory) Sharers(lineAddr uint64) int {
	return bits.OnesCount64(d.entries[lineAddr].sharers)
}

// OwnerOf returns the modified owner of the line, or -1.
func (d *Directory) OwnerOf(lineAddr uint64) int {
	e, ok := d.entries[lineAddr]
	if !ok {
		return noNode
	}
	return int(e.owner)
}

// IsMigratory reports whether the line has been classified migratory.
func (d *Directory) IsMigratory(lineAddr uint64) bool {
	return d.entries[lineAddr].migratory
}

func newEntry() dirEntry { return dirEntry{owner: noNode, excl: noNode, lastWriter: noNode} }

// SetProbe installs the memory system's dirty-probe callback (see the
// probeDirty field). Without one, Exclusive grantees are assumed clean.
func (d *Directory) SetProbe(probe func(node int, lineAddr uint64) bool) {
	d.probeDirty = probe
}

// resolveExcl settles an outstanding clean-Exclusive grant before a
// conflicting request from node is serviced. If the grantee has silently
// upgraded to Modified it becomes the recorded owner (so the dirty
// cache-to-cache path services the request); otherwise it stays a plain
// sharer, and its id is returned so the caller can downgrade its cached
// copy E->S. Returns noNode when there is nothing to downgrade.
func (d *Directory) resolveExcl(e *dirEntry, lineAddr uint64, node int) int {
	if e.excl == noNode || e.excl == int8(node) {
		// No grant outstanding, or the grantee itself is requesting again
		// (possible after a silent local refetch); either way it is just a
		// sharer now and the grant is spent.
		e.excl = noNode
		return noNode
	}
	holder := int(e.excl)
	e.excl = noNode
	if d.probeDirty != nil && d.probeDirty(holder, lineAddr) {
		e.owner = int8(holder)
		e.sharers = 0
		return noNode
	}
	return holder
}

// Read services a GETS from node for lineAddr.
func (d *Directory) Read(node int, lineAddr uint64) ReadResult {
	d.Reads++
	e, ok := d.entries[lineAddr]
	if !ok {
		e = newEntry()
	}
	res := ReadResult{Source: SrcMemory, Owner: noNode, Migratory: e.migratory, Downgrade: noNode}
	res.Sharers = bits.OnesCount64(e.sharers)
	if e.owner != noNode {
		res.Sharers++
	}
	res.Downgrade = d.resolveExcl(&e, lineAddr, node)
	switch {
	case e.owner == int8(node):
		// Requesting node already owns it dirty (can happen when an L1 read
		// misses but the node's L2 holds it Modified) — treated by memsys
		// as a local hierarchy fill; directory state is unchanged.
		res.Source = SrcNone
		return res
	case e.owner != noNode:
		// Dirty elsewhere: cache-to-cache transfer.
		d.ReadsDirty++
		if e.migratory {
			d.MigratoryReadsCC++
		}
		res.Source = SrcOwnerCache
		res.Owner = int(e.owner)
		if d.MigratoryOpt && e.migratory {
			// Adaptive migratory protocol: pass ownership with the data;
			// the previous owner's copy is invalidated.
			d.MigratoryTransfers++
			res.MigratoryTransfer = true
			res.Exclusive = true
			e.sharers = 0
			e.owner = int8(node)
			e.lastWriter = int8(node)
			d.entries[lineAddr] = e
			return res
		}
		// Plain MESI: owner downgrades to Shared, memory picks up the data.
		e.sharers |= 1 << uint(e.owner)
		e.owner = noNode
	default:
		res.Source = SrcMemory
	}
	e.sharers |= 1 << uint(node)
	if bits.OnesCount64(e.sharers) == 1 && res.Source == SrcMemory {
		// Sole cached copy from memory: grant Exclusive and remember the
		// grantee, since it may later upgrade to Modified without telling us.
		res.Exclusive = true
		e.excl = int8(node)
	}
	if bits.OnesCount64(e.sharers) >= 2 {
		e.everShared = true
	}
	d.entries[lineAddr] = e
	return res
}

// Write services a GETX (or upgrade) from node for lineAddr.
func (d *Directory) Write(node int, lineAddr uint64) WriteResult {
	d.Writes++
	e, ok := d.entries[lineAddr]
	if !ok {
		e = newEntry()
	}
	d.invBuf = d.invBuf[:0]
	res := WriteResult{Source: SrcMemory, Owner: noNode}
	res.Sharers = bits.OnesCount64(e.sharers)
	if e.owner != noNode {
		res.Sharers++
	}

	// A clean-Exclusive grantee either becomes the recorded dirty owner
	// (cache-to-cache below) or a plain sharer (invalidated below).
	d.resolveExcl(&e, lineAddr, node)

	nodeBit := uint64(1) << uint(node)
	copies := bits.OnesCount64(e.sharers)
	if e.owner != noNode {
		copies = 1
	}

	// Migratory detection heuristic (paper footnote 2).
	if copies == 2 && e.lastWriter != noNode && e.lastWriter != int8(node) {
		if !e.migratory {
			d.MigratoryLines++
		}
		e.migratory = true
	}

	switch {
	case e.owner == int8(node):
		// Already modified here (L1 write miss, node L2 owns): local.
		res.Source = SrcNone
	case e.owner != noNode:
		// Dirty elsewhere: transfer ownership cache-to-cache.
		res.Source = SrcOwnerCache
		res.Owner = int(e.owner)
		d.invBuf = append(d.invBuf, int(e.owner))
		res.WasShared = true
	default:
		// Clean: invalidate all other sharers; upgrade if we already share.
		for s := e.sharers &^ nodeBit; s != 0; {
			n := bits.TrailingZeros64(s)
			d.invBuf = append(d.invBuf, n)
			s &^= 1 << uint(n)
			res.WasShared = true
		}
		if e.sharers&nodeBit != 0 {
			res.Source = SrcNone // upgrade: data already present
			d.Upgrades++
		}
	}
	if e.lastWriter != noNode && e.lastWriter != int8(node) {
		res.WasShared = true
		e.everShared = true
	}
	if res.WasShared {
		d.WritesShared++
		if e.migratory {
			d.MigratoryWrites++
		}
	}
	e.sharers = 0
	e.owner = int8(node)
	e.lastWriter = int8(node)
	d.entries[lineAddr] = e
	res.Invalidates = d.invBuf
	res.Migratory = e.migratory
	return res
}

// Writeback records a dirty eviction from node: memory becomes the owner.
func (d *Directory) Writeback(node int, lineAddr uint64) {
	e, ok := d.entries[lineAddr]
	if !ok {
		return
	}
	d.Writebacks++
	if e.excl == int8(node) {
		// Silent E->M upgrade surfacing as a dirty eviction.
		e.excl = noNode
		e.sharers &^= 1 << uint(node)
	}
	if e.owner == int8(node) {
		e.owner = noNode
		e.sharers &^= 1 << uint(node)
	}
	d.entries[lineAddr] = e
}

// EvictClean records a clean (S/E) eviction from node.
func (d *Directory) EvictClean(node int, lineAddr uint64) {
	e, ok := d.entries[lineAddr]
	if !ok {
		return
	}
	if e.owner == int8(node) {
		e.owner = noNode
	}
	if e.excl == int8(node) {
		e.excl = noNode
	}
	e.sharers &^= 1 << uint(node)
	d.entries[lineAddr] = e
}

// Flush services the software flush / sharing-write-back hint: if node owns
// the line dirty, the data is pushed to memory. When keepClean is true the
// node retains a Shared copy (the paper found keeping the copy essential);
// otherwise the copy is dropped. Returns true if a write-back happened.
func (d *Directory) Flush(node int, lineAddr uint64, keepClean bool) bool {
	e, ok := d.entries[lineAddr]
	if !ok {
		return false
	}
	if e.excl == int8(node) {
		// The flusher holds a clean-Exclusive grant; memsys only issues a
		// flush for a line its L2 holds Modified, so the grant has silently
		// become ownership.
		e.excl = noNode
		e.owner = int8(node)
	}
	if e.owner != int8(node) {
		return false
	}
	d.Flushes++
	e.owner = noNode
	if keepClean {
		e.sharers |= 1 << uint(node)
	} else {
		e.sharers &^= 1 << uint(node)
	}
	d.entries[lineAddr] = e
	return true
}

// IsSharer reports whether the directory records node as caching the line.
func (d *Directory) IsSharer(node int, lineAddr uint64) bool {
	e, ok := d.entries[lineAddr]
	if !ok {
		return false
	}
	return e.owner == int8(node) || e.sharers&(1<<uint(node)) != 0
}

// ExclusiveOf returns the node holding an unresolved clean-Exclusive grant
// for the line, or -1 (tests/invariants).
func (d *Directory) ExclusiveOf(lineAddr uint64) int {
	e, ok := d.entries[lineAddr]
	if !ok {
		return noNode
	}
	return int(e.excl)
}

// CheckLine verifies the directory's own invariants for one line against a
// machine with nodes nodes: the owner and Exclusive grantee are valid node
// ids, the sharer mask names only real nodes, a dirty owner excludes all
// sharers, and an Exclusive grantee is the sole sharer. Returns nil when
// the line has no directory state.
func (d *Directory) CheckLine(lineAddr uint64, nodes int) error {
	e, ok := d.entries[lineAddr]
	if !ok {
		return nil
	}
	if e.owner < noNode || int(e.owner) >= nodes {
		return fmt.Errorf("coherence: line %#x: owner %d out of range [0,%d)", lineAddr, e.owner, nodes)
	}
	if e.excl < noNode || int(e.excl) >= nodes {
		return fmt.Errorf("coherence: line %#x: exclusive grantee %d out of range [0,%d)", lineAddr, e.excl, nodes)
	}
	if nodes < 64 && e.sharers>>uint(nodes) != 0 {
		return fmt.Errorf("coherence: line %#x: sharer mask %#x names nodes >= %d", lineAddr, e.sharers, nodes)
	}
	if e.owner != noNode {
		if e.sharers != 0 {
			return fmt.Errorf("coherence: line %#x: dirty owner %d coexists with sharer mask %#x (single-owner violated)",
				lineAddr, e.owner, e.sharers)
		}
		if e.excl != noNode {
			return fmt.Errorf("coherence: line %#x: dirty owner %d coexists with exclusive grantee %d",
				lineAddr, e.owner, e.excl)
		}
	}
	if e.excl != noNode && e.sharers != 1<<uint(e.excl) {
		return fmt.Errorf("coherence: line %#x: exclusive grantee %d but sharer mask %#x is not exactly its bit",
			lineAddr, e.excl, e.sharers)
	}
	return nil
}

// CheckAll runs CheckLine over every line with directory state.
func (d *Directory) CheckAll(nodes int) error {
	for lineAddr := range d.entries {
		if err := d.CheckLine(lineAddr, nodes); err != nil {
			return err
		}
	}
	return nil
}

// StateCounts summarizes directory state for diagnostics: total lines
// tracked, lines dirty in some cache (including unresolved Exclusive
// grants, which may be silently dirty), lines cached by >= 2 nodes, and
// lines classified migratory.
func (d *Directory) StateCounts() (lines, owned, shared, migratory int) {
	lines = len(d.entries)
	for _, e := range d.entries {
		if e.owner != noNode || e.excl != noNode {
			owned++
		}
		if bits.OnesCount64(e.sharers) >= 2 {
			shared++
		}
		if e.migratory {
			migratory++
		}
	}
	return
}

// DirtyReadFraction returns the fraction of directory reads serviced
// cache-to-cache (the paper: ~50% of OLTP L2 misses are dirty misses).
func (d *Directory) DirtyReadFraction() float64 {
	if d.Reads == 0 {
		return 0
	}
	return float64(d.ReadsDirty) / float64(d.Reads)
}

// ResetStats zeroes the protocol counters (directory state is kept); the
// migratory classification of lines is retained, since it describes the
// data, not the measurement interval.
func (d *Directory) ResetStats() {
	d.Reads, d.ReadsDirty, d.Writes, d.WritesShared = 0, 0, 0, 0
	d.Upgrades, d.Writebacks, d.Flushes = 0, 0, 0
	d.MigratoryLines, d.MigratoryReadsCC, d.MigratoryWrites = 0, 0, 0
}
