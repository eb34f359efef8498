// Package memsys assembles the simulated memory system: per-node cache
// hierarchies (L1I with optional stream buffer, dual-ported L1D, pipelined
// unified L2, MSHRs at both levels, I/D TLBs), the split-transaction node
// bus, the full-map MESI directory distributed across home nodes, the
// wormhole mesh, and interleaved memory banks.
//
// Timing model: the simulator is cycle-stepped at the processors and
// latency/contention based in the memory system. When a request reaches a
// component it acquires that component (ports, bus, directory, banks, links
// all keep busy-until times), so queueing emerges under load, and the
// contentionless latencies compose to the Figure 1 targets (~100 local,
// ~160-180 remote, ~280-310 cache-to-cache). Coherence state is updated
// eagerly at request time; processors are stepped in lockstep so cross-node
// skew is bounded by one cycle.
package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/tlb"
	"repro/internal/tracing"
)

// Class says where an access was serviced; it maps onto the read-stall
// subcategories of the paper's figures.
type Class uint8

const (
	// ClassL1 is a first-level cache hit.
	ClassL1 Class = iota
	// ClassL2 is an L2 hit (or a merge with an outstanding L2 fill).
	ClassL2
	// ClassLocal was serviced by local memory.
	ClassLocal
	// ClassRemote was serviced by remote memory.
	ClassRemote
	// ClassRemoteDirty was serviced by a cache-to-cache transfer.
	ClassRemoteDirty
)

func (c Class) String() string {
	switch c {
	case ClassL1:
		return "L1"
	case ClassL2:
		return "L2"
	case ClassLocal:
		return "local"
	case ClassRemote:
		return "remote"
	case ClassRemoteDirty:
		return "dirty"
	}
	return "?"
}

// Result describes one serviced access.
type Result struct {
	Done      uint64 // cycle the data is available to the processor
	LineAddr  uint64 // physical line address (for violation tracking)
	Class     Class
	TLBMiss   bool
	Migratory bool // the touched line is classified migratory
	SBHit     bool // instruction fetch satisfied by the stream buffer
}

// InvalidationHook is called when a line is invalidated from or replaced in
// a node's hierarchy; the processor uses it to detect speculative-load
// ordering violations (Section 3.4) and to abort hardware transactions
// whose read/write set loses a line. eviction distinguishes a local
// capacity/associativity replacement (the node displaced its own line)
// from a coherence invalidation caused by another node's access.
type InvalidationHook func(lineAddr uint64, eviction bool)

// System is the machine-wide memory system.
type System struct {
	cfg        config.Config
	pt         *tlb.PageTable
	dir        *coherence.Directory
	classifier *coherence.Classifier
	net        *mesh.Mesh
	nodes      []*Hierarchy
	faults     *fault.Injector // nil unless cfg.Faults.Enabled

	// The split-transaction bus carries requests and replies on separate
	// tracks; modelling both directions with one busy-until scalar would
	// let a reply booked in the future block the next request.
	busReqBusy  []uint64   // per node, outgoing requests
	busRespBusy []uint64   // per node, incoming data/acks
	dirBusy     []uint64   // per node
	bankBusy    [][]uint64 // per node, per bank
}

// New builds the memory system for cfg, validating the configuration and
// every component geometry derived from it.
func New(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("memsys: %w", err)
	}
	pt, err := tlb.NewPageTable(cfg.PageBytes)
	if err != nil {
		return nil, fmt.Errorf("memsys: %w", err)
	}
	net, err := mesh.New(cfg.Nodes, cfg.HopCycles, cfg.FlitCycles)
	if err != nil {
		return nil, fmt.Errorf("memsys: %w", err)
	}
	s := &System{
		cfg:         cfg,
		pt:          pt,
		dir:         coherence.NewDirectory(),
		classifier:  coherence.NewClassifier(),
		net:         net,
		faults:      fault.New(cfg.Faults),
		busReqBusy:  make([]uint64, cfg.Nodes),
		busRespBusy: make([]uint64, cfg.Nodes),
		dirBusy:     make([]uint64, cfg.Nodes),
		bankBusy:    make([][]uint64, cfg.Nodes),
	}
	s.dir.MigratoryOpt = cfg.MigratoryProtocol
	// The directory learns about silent E->M upgrades by probing the
	// grantee's L2 on the next conflicting request.
	s.dir.SetProbe(func(node int, lineAddr uint64) bool {
		h := s.nodes[node]
		return h.l2.Probe(lineAddr<<h.l2.LineShift()) == cache.Modified
	})
	for n := 0; n < cfg.Nodes; n++ {
		s.bankBusy[n] = make([]uint64, cfg.MemBanks)
		h, err := newHierarchy(s, n)
		if err != nil {
			return nil, fmt.Errorf("memsys: node %d: %w", n, err)
		}
		s.nodes = append(s.nodes, h)
	}
	return s, nil
}

// MustNew is New for contexts (tests, examples) where the configuration is
// known good; it panics on error.
func MustNew(cfg config.Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Node returns node n's hierarchy.
func (s *System) Node(n int) *Hierarchy { return s.nodes[n] }

// Faults returns the fault injector (nil when injection is disabled; a nil
// injector is safe to call and injects nothing).
func (s *System) Faults() *fault.Injector { return s.faults }

// send carries a message across the mesh, adding any injected delay. All
// protocol traffic goes through here so the fault injector perturbs every
// message class uniformly.
func (s *System) send(src, dst, flits int, t uint64) uint64 {
	return s.net.Send(src, dst, flits, t) + s.faults.MeshDelay()
}

// checkCoherence verifies protocol invariants for one line after a
// transaction's state updates have fully applied (cfg.DebugChecks): the
// directory's own bookkeeping (CheckLine), no stale dirty copy — a Modified
// L2 line is either the recorded owner or an unresolved Exclusive grantee —
// every cached copy is on the sharer list, and L1D/L2 inclusion. Violations
// panic; core.Machine.Run recovers them into a diagnostic error.
func (s *System) checkCoherence(lineAddr uint64) {
	if !s.cfg.DebugChecks {
		return
	}
	if err := s.dir.CheckLine(lineAddr, s.cfg.Nodes); err != nil {
		panic(err)
	}
	owner := s.dir.OwnerOf(lineAddr)
	excl := s.dir.ExclusiveOf(lineAddr)
	for n, h := range s.nodes {
		paddr := lineAddr << h.l2.LineShift()
		st := h.l2.Probe(paddr)
		if st == cache.Modified && n != owner && n != excl {
			panic(fmt.Sprintf("coherence: line %#x is Modified in node %d's L2 but the directory records owner %d (stale dirty copy)",
				lineAddr, n, owner))
		}
		if st != cache.Invalid && !s.dir.IsSharer(n, lineAddr) {
			panic(fmt.Sprintf("coherence: line %#x cached %v by node %d but absent from the directory's sharer list",
				lineAddr, st, n))
		}
		// L1D/L2 inclusion (the L1I is exempt: stream-buffer fills install
		// into the L1I without re-checking the L2).
		if l1 := h.l1d.Probe(paddr); l1 != cache.Invalid && st == cache.Invalid {
			panic(fmt.Sprintf("coherence: line %#x in node %d's L1D (%v) violates inclusion (L2 invalid)",
				lineAddr, n, l1))
		}
	}
}

// Directory returns the machine's directory.
func (s *System) Directory() *coherence.Directory { return s.dir }

// Classifier returns the migratory-access classifier.
func (s *System) Classifier() *coherence.Classifier { return s.classifier }

// Net returns the interconnect.
func (s *System) Net() *mesh.Mesh { return s.net }

// PageTable returns the machine-wide page table.
func (s *System) PageTable() *tlb.PageTable { return s.pt }

// Config returns the machine configuration.
func (s *System) Config() config.Config { return s.cfg }

// Finalize settles lazily accumulated statistics (MSHR occupancy) at end.
func (s *System) Finalize(now uint64) {
	for _, h := range s.nodes {
		h.l1dMSHR.Advance(now)
		h.l1iMSHR.Advance(now)
		h.l2MSHR.Advance(now)
	}
}

// acquire picks the earliest-free unit in busy, waits if needed, occupies
// it for occ cycles, and returns the start time.
func acquire(busy []uint64, t, occ uint64) uint64 {
	best := 0
	for i := 1; i < len(busy); i++ {
		if busy[i] < busy[best] {
			best = i
		}
	}
	if busy[best] > t {
		t = busy[best]
	}
	busy[best] = t + occ
	return t
}

// Hierarchy is one node's private memory hierarchy.
type Hierarchy struct {
	sys  *System
	node int

	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache

	l1iMSHR *cache.MSHRFile
	l1dMSHR *cache.MSHRFile
	l2MSHR  *cache.MSHRFile

	itlb *tlb.TLB
	dtlb *tlb.TLB

	sbuf *cache.StreamBuffer

	l1dPorts []uint64
	l1iPorts []uint64
	l2Ports  []uint64

	invalHook InvalidationHook
	trc       *tracing.Tracer // nil = tracing disabled (pure-observer hooks)

	// Statistics beyond the per-cache counters.
	IFetchSBHits      uint64 // L1I misses satisfied by the stream buffer
	PrefetchesIssued  uint64
	PrefetchesDropped uint64
	FlushesIssued     uint64
}

func newHierarchy(s *System, node int) (*Hierarchy, error) {
	cfg := s.cfg
	h := &Hierarchy{
		sys:      s,
		node:     node,
		l1dPorts: make([]uint64, cfg.L1D.Ports),
		l1iPorts: make([]uint64, cfg.L1I.Ports),
		l2Ports:  make([]uint64, cfg.L2.Ports),
	}
	var err error
	if h.l1i, err = cache.New("L1I", cfg.L1I.SizeBytes, cfg.L1I.Assoc, cfg.L1I.LineBytes); err != nil {
		return nil, err
	}
	if h.l1d, err = cache.New("L1D", cfg.L1D.SizeBytes, cfg.L1D.Assoc, cfg.L1D.LineBytes); err != nil {
		return nil, err
	}
	if h.l2, err = cache.New("L2", cfg.L2.SizeBytes, cfg.L2.Assoc, cfg.L2.LineBytes); err != nil {
		return nil, err
	}
	if h.l1iMSHR, err = cache.NewMSHRFile(cfg.L1I.MSHRs); err != nil {
		return nil, err
	}
	if h.l1dMSHR, err = cache.NewMSHRFile(cfg.L1D.MSHRs); err != nil {
		return nil, err
	}
	if h.l2MSHR, err = cache.NewMSHRFile(cfg.L2.MSHRs); err != nil {
		return nil, err
	}
	if h.itlb, err = tlb.New(cfg.ITLBEntries); err != nil {
		return nil, err
	}
	if h.dtlb, err = tlb.New(cfg.DTLBEntries); err != nil {
		return nil, err
	}
	h.sbuf, err = cache.NewStreamBuffer(cfg.StreamBufEntries, func(lineAddr uint64, now uint64) uint64 {
		// Stream-buffer prefetches go to the L2 (and beyond on L2 misses)
		// but do not install into the L1; the buffer holds the line.
		paddr := lineAddr << h.l2.LineShift()
		home, ok := s.pt.HomeOfPhys(paddr)
		if !ok {
			home = node // unmapped speculative stream; service locally
		}
		done, _, _ := h.l2Access(paddr, home, now, false, 0, false)
		return done
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Node returns this hierarchy's node id.
func (h *Hierarchy) Node() int { return h.node }

// L1I returns the instruction cache (for tests and reports).
func (h *Hierarchy) L1I() *cache.Cache { return h.l1i }

// L1D returns the data cache.
func (h *Hierarchy) L1D() *cache.Cache { return h.l1d }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// L1DMSHRs returns the L1D miss file.
func (h *Hierarchy) L1DMSHRs() *cache.MSHRFile { return h.l1dMSHR }

// L1IMSHRs returns the L1I miss file.
func (h *Hierarchy) L1IMSHRs() *cache.MSHRFile { return h.l1iMSHR }

// L2MSHRs returns the L2 miss file.
func (h *Hierarchy) L2MSHRs() *cache.MSHRFile { return h.l2MSHR }

// ITLB returns the instruction TLB.
func (h *Hierarchy) ITLB() *tlb.TLB { return h.itlb }

// DTLB returns the data TLB.
func (h *Hierarchy) DTLB() *tlb.TLB { return h.dtlb }

// StreamBuffer returns the instruction stream buffer (nil when disabled).
func (h *Hierarchy) StreamBuffer() *cache.StreamBuffer { return h.sbuf }

// SetTracer attaches (or with nil detaches) the event tracer. The tracer
// is a pure observer of the access paths: it never changes timing.
func (h *Hierarchy) SetTracer(t *tracing.Tracer) { h.trc = t }

// SetInvalidationHook registers the processor's violation detector.
func (h *Hierarchy) SetInvalidationHook(f InvalidationHook) { h.invalHook = f }

// CheckTLBs reports a TLB entry whose held translation is not the page
// table's (debug invariant).
func (h *Hierarchy) CheckTLBs() error {
	if err := h.itlb.Check(h.sys.pt); err != nil {
		return fmt.Errorf("memsys: node %d iTLB: %w", h.node, err)
	}
	if err := h.dtlb.Check(h.sys.pt); err != nil {
		return fmt.Errorf("memsys: node %d dTLB: %w", h.node, err)
	}
	return nil
}

// FlushTLBs invalidates both TLBs (context switch).
func (h *Hierarchy) FlushTLBs() {
	h.itlb.Flush()
	h.dtlb.Flush()
}

// applyInvalidation removes the line from every level of this node —
// including any in-flight fill recorded in the MSHRs — and notifies the
// processor (coherence-initiated).
func (h *Hierarchy) applyInvalidation(lineAddr uint64) {
	paddr := lineAddr << h.l2.LineShift()
	h.l2.Invalidate(paddr)
	h.l1d.Invalidate(paddr)
	h.l1i.Invalidate(paddr)
	h.l1dMSHR.Remove(lineAddr)
	h.l1iMSHR.Remove(lineAddr)
	h.l2MSHR.Remove(lineAddr)
	if h.invalHook != nil {
		h.invalHook(lineAddr, false)
	}
}

// downgrade moves the line to Shared in every level (dirty read forward);
// any in-flight exclusive fill loses its ownership claim.
func (h *Hierarchy) downgrade(lineAddr uint64) {
	paddr := lineAddr << h.l2.LineShift()
	if h.l2.Probe(paddr) != cache.Invalid {
		h.l2.SetState(paddr, cache.Shared)
	}
	if h.l1d.Probe(paddr) != cache.Invalid {
		h.l1d.SetState(paddr, cache.Shared)
	}
	h.l1dMSHR.ClearWrite(lineAddr)
	h.l2MSHR.ClearWrite(lineAddr)
}
