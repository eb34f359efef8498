package memsys

import (
	"repro/internal/cache"
	"repro/internal/coherence"
)

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// acquireAt reserves a single unit (bus, directory, memory bank) from t for
// occ cycles and returns the start time.
func acquireAt(busy *uint64, t, occ uint64) uint64 {
	if *busy > t {
		t = *busy
	}
	*busy = t + occ
	return t
}

// busOccupancy is the cycles a request holds the split-transaction bus.
const busOccupancy = 4

// translate maps vaddr through the appropriate TLB, reporting a TLB miss;
// only a miss reads the page table. Perfect TLBs never miss and always
// read it.
func (h *Hierarchy) translate(vaddr uint64, instr bool) (paddr uint64, home int, miss bool) {
	t, perfect := h.dtlb, h.sys.cfg.PerfectDTLB
	if instr {
		t, perfect = h.itlb, h.sys.cfg.PerfectITLB
	}
	if perfect {
		paddr, home = h.sys.pt.Translate(vaddr, h.node)
		return paddr, home, false
	}
	paddr, home, hit := t.Translate(h.sys.pt, vaddr, h.node)
	return paddr, home, !hit
}

// DataRead services a load issued at cycle now by the instruction at pc.
func (h *Hierarchy) DataRead(vaddr, pc uint64, now uint64, inCS bool) Result {
	paddr, home, tlbMiss := h.translate(vaddr, false)
	t := now
	if tlbMiss {
		t += uint64(h.sys.cfg.TLBMissCost)
	}
	t = acquire(h.l1dPorts, t, 1)
	hitT := t + uint64(h.sys.cfg.L1D.HitCycles)
	la := h.l1d.LineAddr(paddr)
	// An outstanding fill takes precedence over the (eagerly updated) tag
	// array: the data arrives when the miss completes.
	h.l1dMSHR.Advance(now)
	if m, ok := h.l1dMSHR.Lookup(la); ok {
		h.l1dMSHR.Coalesce(la)
		h.l1d.RecordAccess(false, false)
		return Result{Done: maxU(m.Done, hitT), LineAddr: la, Class: Class(m.Class), TLBMiss: tlbMiss}
	}
	if h.l1d.Lookup(paddr) != cache.Invalid {
		h.l1d.RecordAccess(false, false)
		return Result{Done: hitT, LineAddr: la, Class: ClassL1, TLBMiss: tlbMiss}
	}
	h.l1d.RecordAccess(false, true)
	for h.l1dMSHR.Full(hitT) {
		hitT = h.l1dMSHR.NextFree()
	}
	if h.trc != nil {
		h.trc.BeginMiss(h.node, pc, now, false, inCS)
		h.trc.MissMSHR(hitT)
	}
	done, class, mig := h.l2Access(paddr, home, hitT, false, pc, inCS)
	if h.trc != nil {
		// Events carry the virtual line-aligned address (physical pages are
		// first-touch allocated, so only virtual addresses name db regions).
		h.trc.EndMiss(h.traceLine(vaddr), done, uint8(class), mig, tlbMiss)
	}
	h.l1dMSHR.Allocate(cache.MSHR{LineAddr: la, Done: done, Class: uint8(class), Read: true}, hitT)
	h.handleL1DEviction(h.l1d.Insert(paddr, cache.Shared))
	return Result{Done: done, LineAddr: la, Class: class, TLBMiss: tlbMiss, Migratory: mig}
}

// DataWrite services a store issued at cycle now by the instruction at pc.
// Under relaxed models the processor does not wait for Done; the MSHR and
// write buffer occupancy provide the back-pressure.
func (h *Hierarchy) DataWrite(vaddr, pc uint64, now uint64, inCS bool) Result {
	paddr, home, tlbMiss := h.translate(vaddr, false)
	t := now
	if tlbMiss {
		t += uint64(h.sys.cfg.TLBMissCost)
	}
	t = acquire(h.l1dPorts, t, 1)
	hitT := t + uint64(h.sys.cfg.L1D.HitCycles)
	la := h.l1d.LineAddr(paddr)
	h.l1dMSHR.Advance(now)
	if m, ok := h.l1dMSHR.Lookup(la); ok {
		h.l1dMSHR.Coalesce(la)
		h.l1d.RecordAccess(true, false)
		if m.Write {
			h.l1d.Insert(paddr, cache.Modified)
			return Result{Done: maxU(m.Done, hitT), LineAddr: la, Class: Class(m.Class), TLBMiss: tlbMiss}
		}
		// A read fill is outstanding; the exclusive request chains after
		// it through the L2 (likely an upgrade by then).
		if h.trc != nil {
			h.trc.BeginMiss(h.node, pc, now, true, inCS)
			h.trc.MissMSHR(maxU(hitT, m.Done))
		}
		done, class, mig := h.l2Access(paddr, home, maxU(hitT, m.Done), true, pc, inCS)
		if h.trc != nil {
			h.trc.EndMiss(h.traceLine(vaddr), done, uint8(class), mig, tlbMiss)
		}
		h.l1d.Insert(paddr, cache.Modified)
		return Result{Done: done, LineAddr: la, Class: class, TLBMiss: tlbMiss, Migratory: mig}
	}
	l1st := h.l1d.Lookup(paddr)
	if l1st == cache.Modified {
		h.l1d.RecordAccess(true, false)
		return Result{Done: hitT, LineAddr: la, Class: ClassL1, TLBMiss: tlbMiss}
	}
	if l1st != cache.Invalid {
		// Line present read-only in L1; writable if this node owns it.
		if l2st := h.l2.Probe(paddr); l2st == cache.Modified || l2st == cache.Exclusive {
			h.l1d.SetState(paddr, cache.Modified)
			h.l2.SetState(paddr, cache.Modified)
			h.l1d.RecordAccess(true, false)
			return Result{Done: hitT, LineAddr: la, Class: ClassL1, TLBMiss: tlbMiss}
		}
	}
	h.l1d.RecordAccess(true, true)
	for h.l1dMSHR.Full(hitT) {
		hitT = h.l1dMSHR.NextFree()
	}
	if h.trc != nil {
		h.trc.BeginMiss(h.node, pc, now, true, inCS)
		h.trc.MissMSHR(hitT)
	}
	done, class, mig := h.l2Access(paddr, home, hitT, true, pc, inCS)
	if h.trc != nil {
		h.trc.EndMiss(h.traceLine(vaddr), done, uint8(class), mig, tlbMiss)
	}
	h.l1dMSHR.Allocate(cache.MSHR{LineAddr: la, Done: done, Class: uint8(class), Write: true}, hitT)
	h.handleL1DEviction(h.l1d.Insert(paddr, cache.Modified))
	return Result{Done: done, LineAddr: la, Class: class, TLBMiss: tlbMiss, Migratory: mig}
}

// traceLine aligns a virtual address to the coherence (L2 line)
// granularity for event tagging.
func (h *Hierarchy) traceLine(vaddr uint64) uint64 {
	return vaddr >> h.l2.LineShift() << h.l2.LineShift()
}

// handleL1DEviction folds a dirty L1D victim back into the (inclusive) L2
// and notifies the processor that the line left the L1 (replacements of
// speculatively loaded lines must trigger rollback, like invalidations).
func (h *Hierarchy) handleL1DEviction(ev cache.Eviction) {
	if !ev.Valid {
		return
	}
	if ev.State == cache.Modified {
		h.l2.SetState(ev.LineAddr<<h.l2.LineShift(), cache.Modified)
	}
	if h.invalHook != nil {
		h.invalHook(ev.LineAddr, true)
	}
}

// l2Access runs an access that missed (or needs ownership) in the L1s
// through the L2 and, if necessary, the directory protocol.
func (h *Hierarchy) l2Access(paddr uint64, home int, now uint64, write bool, pc uint64, inCS bool) (done uint64, class Class, mig bool) {
	cfg := &h.sys.cfg
	t := acquire(h.l2Ports, now, 1)
	hitT := t + uint64(cfg.L2.HitCycles)
	la := h.l2.LineAddr(paddr)

	// An outstanding L2 fill takes precedence over the eagerly updated
	// tags: a second miss to the line merges with the fill in flight.
	h.l2MSHR.Advance(now)
	if m, ok := h.l2MSHR.Lookup(la); ok {
		h.l2MSHR.Coalesce(la)
		if !write || m.Write {
			h.l2.RecordAccess(write, false)
			return maxU(m.Done, hitT), Class(m.Class), false
		}
		// A write merging with an outstanding read fill: upgrade after it.
		h.l2.RecordAccess(write, true)
		for h.l2MSHR.Full(maxU(hitT, m.Done)) {
			hitT = h.l2MSHR.NextFree()
		}
		done, class, _, mig := h.dirTransaction(la, home, maxU(hitT, m.Done), true, pc, inCS)
		h.l2MSHR.Allocate(cache.MSHR{LineAddr: la, Done: done, Class: uint8(class), Write: true}, maxU(hitT, m.Done))
		h.l2.SetState(paddr, cache.Modified)
		h.sys.checkCoherence(la)
		return done, class, mig
	}

	st := h.l2.Lookup(paddr)
	if st != cache.Invalid {
		if !write || st == cache.Modified || st == cache.Exclusive {
			if write {
				h.l2.SetState(paddr, cache.Modified)
			}
			h.l2.RecordAccess(write, false)
			return hitT, ClassL2, false
		}
		// Write to a Shared line: ownership upgrade through the directory.
		h.l2.RecordAccess(write, true)
		for h.l2MSHR.Full(hitT) {
			hitT = h.l2MSHR.NextFree()
		}
		done, class, _, mig = h.dirTransaction(la, home, hitT, true, pc, inCS)
		h.l2MSHR.Allocate(cache.MSHR{LineAddr: la, Done: done, Class: uint8(class), Write: true}, hitT)
		h.l2.SetState(paddr, cache.Modified)
		h.sys.checkCoherence(la)
		return done, class, mig
	}

	h.l2.RecordAccess(write, true)
	for h.l2MSHR.Full(hitT) {
		hitT = h.l2MSHR.NextFree()
	}
	var grant cache.State
	done, class, grant, mig = h.dirTransaction(la, home, hitT, write, pc, inCS)
	h.l2MSHR.Allocate(cache.MSHR{LineAddr: la, Done: done, Class: uint8(class), Read: !write, Write: write}, hitT)
	h.handleL2Eviction(h.l2.Insert(paddr, grant), done)
	h.sys.checkCoherence(la)
	return done, class, mig
}

// handleL2Eviction enforces inclusion (dropping the line from the L1s) and
// writes dirty victims back to their home memory.
func (h *Hierarchy) handleL2Eviction(ev cache.Eviction, now uint64) {
	if !ev.Valid {
		return
	}
	s := h.sys
	paddr := ev.LineAddr << h.l2.LineShift()
	h.l1d.Invalidate(paddr)
	h.l1i.Invalidate(paddr)
	if h.invalHook != nil {
		h.invalHook(ev.LineAddr, true)
	}
	home, ok := s.pt.HomeOfPhys(paddr)
	if !ok {
		home = h.node
	}
	if ev.State == cache.Modified {
		s.dir.Writeback(h.node, ev.LineAddr)
		if h.trc != nil {
			h.trc.Writeback(h.node, ev.LineAddr<<h.l2.LineShift(), now)
		}
		// Fire-and-forget write-back: occupy bus, network, and bank.
		t := acquireAt(&s.busReqBusy[h.node], now, busOccupancy) + uint64(s.cfg.BusCycles)
		t = s.send(h.node, home, s.cfg.DataFlits, t)
		t += s.faults.MemStall()
		bank := ev.LineAddr % uint64(s.cfg.MemBanks)
		acquireAt(&s.bankBusy[home][bank], t, uint64(s.cfg.MemoryCycles))
	} else {
		s.dir.EvictClean(h.node, ev.LineAddr)
	}
	s.checkCoherence(ev.LineAddr)
}

// dirTransaction performs the coherence transaction for lineAddr at its
// home directory and returns the completion time, service class, granted
// MESI state, and whether the line is migratory.
func (h *Hierarchy) dirTransaction(lineAddr uint64, home int, now uint64, write bool, pc uint64, inCS bool) (done uint64, class Class, grant cache.State, mig bool) {
	s := h.sys
	cfg := &s.cfg
	reqStart := now

	// Out over the node bus, across the network, into the home directory.
	t := acquireAt(&s.busReqBusy[h.node], now, busOccupancy) + uint64(cfg.BusCycles)
	t = s.send(h.node, home, cfg.CtrlFlits, t)
	reqQueue := s.net.LastQueued()
	t = acquireAt(&s.dirBusy[home], t, uint64(cfg.DirCycles)) + uint64(cfg.DirCycles)

	// Injected directory NACKs: the home bounces the request, the requester
	// backs off and retries, bounded so the transaction always completes.
	// Timing-only — protocol state is untouched until the request is
	// accepted, so retired-instruction counts match a fault-free run.
	retries := 0
	for attempt := 0; s.faults.NACK(attempt); attempt++ {
		t = s.send(home, h.node, cfg.CtrlFlits, t)
		t += s.faults.Backoff(attempt)
		t = s.send(h.node, home, cfg.CtrlFlits, t)
		t = acquireAt(&s.dirBusy[home], t, uint64(cfg.DirCycles)) + uint64(cfg.DirCycles)
		retries++
	}
	dirAt := t

	if !write {
		res := s.dir.Read(h.node, lineAddr)
		if h.trc != nil {
			h.trc.MissDir(home, dirAt, s.net.Hops(h.node, home), retries, res.Sharers, reqQueue)
		}
		mig = res.Migratory
		if res.Downgrade >= 0 {
			// A clean-Exclusive holder folds to Shared so any later write
			// there goes back through the directory.
			s.nodes[res.Downgrade].downgrade(lineAddr)
		}
		switch res.Source {
		case coherence.SrcOwnerCache:
			owner := s.nodes[res.Owner]
			t = s.send(home, res.Owner, cfg.CtrlFlits, t)
			ot := acquire(owner.l2Ports, t, 1)
			t = ot + uint64(cfg.L2.HitCycles) + uint64(cfg.InterventionCycles)
			if h.trc != nil {
				h.trc.MissSource(t, res.Owner)
			}
			grant = cache.Shared
			if res.MigratoryTransfer {
				// Adaptive migratory protocol: ownership moves with the
				// data; the old owner's copy is invalidated.
				owner.applyInvalidation(lineAddr)
				grant = cache.Modified
			} else {
				owner.downgrade(lineAddr)
			}
			t = s.send(res.Owner, h.node, cfg.DataFlits, t)
			t = acquireAt(&s.busRespBusy[h.node], t, busOccupancy) + uint64(cfg.BusCycles)
			class = ClassRemoteDirty
			if mig {
				s.classifier.RecordRead(lineAddr, pc, inCS)
				if cfg.MigratoryBound {
					// Figure 7(b) bound: migratory reads serviced ~40%
					// faster, reflecting service by memory.
					t = reqStart + (t-reqStart)*3/5
				}
			}
		default: // SrcMemory (SrcNone cannot occur on an L2 read miss)
			t += s.faults.MemStall()
			bank := lineAddr % uint64(cfg.MemBanks)
			mt := acquireAt(&s.bankBusy[home][bank], t, uint64(cfg.MemoryCycles))
			t = mt + uint64(cfg.MemoryCycles)
			if h.trc != nil {
				h.trc.MissSource(t, -1)
			}
			t = s.send(home, h.node, cfg.DataFlits, t)
			t = acquireAt(&s.busRespBusy[h.node], t, busOccupancy) + uint64(cfg.BusCycles)
			if home == h.node {
				class = ClassLocal
			} else {
				class = ClassRemote
			}
			grant = cache.Shared
			if res.Exclusive {
				grant = cache.Exclusive
			}
		}
		return t, class, grant, mig
	}

	res := s.dir.Write(h.node, lineAddr)
	if h.trc != nil {
		h.trc.MissDir(home, dirAt, s.net.Hops(h.node, home), retries, res.Sharers, reqQueue)
	}
	mig = res.Migratory
	grant = cache.Modified
	if res.WasShared && res.Migratory {
		s.classifier.RecordWrite(lineAddr, pc, inCS)
	}

	// Invalidations fan out from the home in parallel; the reply waits for
	// the last acknowledgement.
	ackT := t
	for _, k := range res.Invalidates {
		if k == res.Owner && res.Source == coherence.SrcOwnerCache {
			continue // ownership transfer handles the owner below
		}
		it := s.send(home, k, cfg.CtrlFlits, t)
		s.nodes[k].applyInvalidation(lineAddr)
		at := s.send(k, home, cfg.CtrlFlits, it+2)
		if at > ackT {
			ackT = at
		}
	}

	switch res.Source {
	case coherence.SrcNone:
		// Upgrade: no data transfer; acknowledge after invalidations.
		t = s.send(home, h.node, cfg.CtrlFlits, ackT)
		t = acquireAt(&s.busRespBusy[h.node], t, busOccupancy) + uint64(cfg.BusCycles)
		if home == h.node {
			class = ClassLocal
		} else {
			class = ClassRemote
		}
	case coherence.SrcOwnerCache:
		owner := s.nodes[res.Owner]
		ft := s.send(home, res.Owner, cfg.CtrlFlits, t)
		ot := acquire(owner.l2Ports, ft, 1)
		dt := ot + uint64(cfg.L2.HitCycles) + uint64(cfg.InterventionCycles)
		if h.trc != nil {
			h.trc.MissSource(dt, res.Owner)
		}
		owner.applyInvalidation(lineAddr)
		t = s.send(res.Owner, h.node, cfg.DataFlits, maxU(dt, ackT))
		t = acquireAt(&s.busRespBusy[h.node], t, busOccupancy) + uint64(cfg.BusCycles)
		class = ClassRemoteDirty
	default: // SrcMemory
		t += s.faults.MemStall()
		bank := lineAddr % uint64(cfg.MemBanks)
		mt := acquireAt(&s.bankBusy[home][bank], t, uint64(cfg.MemoryCycles))
		dataReady := mt + uint64(cfg.MemoryCycles)
		if h.trc != nil {
			h.trc.MissSource(dataReady, -1)
		}
		t = s.send(home, h.node, cfg.DataFlits, maxU(dataReady, ackT))
		t = acquireAt(&s.busRespBusy[h.node], t, busOccupancy) + uint64(cfg.BusCycles)
		if home == h.node {
			class = ClassLocal
		} else {
			class = ClassRemote
		}
	}
	return t, class, grant, mig
}
