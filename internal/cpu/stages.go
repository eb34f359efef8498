package cpu

import (
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/trace"
)

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// live reports whether seq names an entry currently in the window.
func (c *Core) live(seq uint64) bool { return seq >= c.headSeq && seq < c.tailSeq }

// ---------------------------------------------------------------- fetch --

func (c *Core) fetchStage(now uint64) {
	if c.pendingSys || c.streamEnded {
		return
	}
	if c.blockBranch != 0 {
		// Fetch is halted behind a mispredicted branch; resolution is
		// detected here or at the branch's retirement.
		if c.live(c.blockBranch) {
			if e := &c.rob[c.blockBranch&c.robMask]; e.state == stExec && e.complete <= now {
				c.resumeAt = e.complete + uint64(c.cfg.BranchRestart)
				c.blockBranch = 0
			} else {
				c.stallInstr = false
				return
			}
		} else {
			c.blockBranch = 0
		}
	}
	if now < c.resumeAt {
		c.stallInstr = false
		return
	}
	if now < c.fetchReady {
		c.stallInstr = true
		return
	}
	lineShift := c.lineShift
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.fqLen >= c.cfg.FetchBufferEntries {
			return
		}
		if c.unresolved >= c.cfg.MaxSpeculatedBr {
			c.stallInstr = false
			return
		}
		// Decode straight into the ring slot the instruction will occupy
		// in the window; it joins the queue only when fqLen counts it below.
		fe := &c.rob[(c.tailSeq+uint64(c.fqLen))&c.robMask]
		in := &fe.in
		*in = trace.Instr{}
		if !c.ctx.Stream.Next(in) {
			c.streamEnded = true
			return
		}
		if in.Op == trace.OpSyscall {
			c.pendingSys = true
			c.pendingSysNs = in.Latency
			return
		}
		avail := now + 1
		stop := false
		if line := in.PC >> lineShift; !c.lineValid || line != c.curLine {
			res := c.mem.IFetch(in.PC, now)
			c.curLine, c.lineValid = line, true
			if res.Done > avail {
				avail = res.Done
				c.fetchReady = res.Done
				c.stallInstr = true
				stop = true // the rest of this line arrives later
			}
		}
		mis := false
		if in.Op.IsBranch() {
			mis = !c.pred.PredictAndUpdate(in)
			c.unresolved++
			if c.cfg.BTBPrefetch && !mis && in.Taken && in.Target>>lineShift != c.curLine {
				// BTB-directed prefetch of the predicted target's line
				// (correct predictions only: wrong-path fetch is not
				// simulated, matching the trace-driven methodology).
				c.mem.PrefetchInstr(in.Target, now)
			}
		}
		fe.state, fe.fetchDone, fe.flags = stFetched, avail, 0
		if mis {
			fe.flags = fMispred
		}
		c.fqLen++
		if mis {
			// Trace-driven: no wrong-path fetch; stall until resolution.
			c.stallInstr = false
			return
		}
		if stop {
			return
		}
	}
}

// -------------------------------------------------------------- dispatch --

func (c *Core) dispatchStage(now uint64) {
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.fqLen == 0 {
			break
		}
		seq := c.tailSeq
		i := seq & c.robMask
		e := &c.rob[i]
		if e.fetchDone > now {
			break
		}
		if c.robLen() >= c.cfg.WindowSize {
			break
		}
		op := e.in.Op
		k := opKinds[op]
		if k&kMem != 0 && c.memInROB >= c.cfg.MemQueueSize {
			break
		}
		// Fetch wrote the instruction, fetchDone and the mispredict flag;
		// the rest of the entry starts here.
		e.state, e.class, e.cls = stWaiting, 0, k&kCls
		e.complete, e.addrDone, e.lineAddr = 0, 0, 0
		e.at, e.wake = 0, 0
		e.prod1, e.prod2 = noProd, noProd
		if s := e.in.Src1; s != trace.NoReg {
			e.prod1 = c.rename[s]
		}
		if s := e.in.Src2; s != trace.NoReg {
			e.prod2 = c.rename[s]
		}
		if d := e.in.Dest; d != trace.NoReg {
			c.rename[d] = seq
		}
		if k&kMem != 0 {
			c.memInROB++
		}
		c.orderAdd(i)
		if k&kAtRetire != 0 {
			// Mark it executed so it does not block in-order issue.
			e.state = stExec
			e.complete = e.fetchDone
			if op == trace.OpMemBar || op == trace.OpLockAcquire {
				c.fenceCount++
			}
		} else {
			c.waiting++
			c.place(seq, now)
		}
		if e.flags&fMispred != 0 {
			c.blockBranch = seq
		}
		c.tailSeq++
		c.fqLen--
	}
}

// opKinds tabulates, by opcode, what dispatch and retirement test of
// every instruction: the first step's ready-set class (kCls bits) and
// the k* properties.
var opKinds = func() (t [256]uint8) {
	for op := range t {
		o := trace.Op(op)
		t[op] = stepClass(o, 0)
		if o.IsMem() {
			t[op] |= kMem
		}
		if o.IsBranch() {
			t[op] |= kBranch
		}
		if execAtRetire(o) {
			t[op] |= kAtRetire
		}
	}
	return t
}()

const (
	kCls      uint8 = 3      // mask of the first step's ready-set class
	kMem      uint8 = 1 << 2 // takes a memory-queue entry (trace.Op.IsMem)
	kBranch   uint8 = 1 << 3 // speculated branch (trace.Op.IsBranch)
	kAtRetire uint8 = 1 << 4 // executes at retirement (execAtRetire)
)

// execAtRetire reports whether op executes at retirement: fences, locks
// and hints.
func execAtRetire(op trace.Op) bool {
	switch op {
	case trace.OpMemBar, trace.OpWriteBar, trace.OpLockAcquire, trace.OpLockRelease,
		trace.OpPrefetch, trace.OpPrefetchX, trace.OpFlush:
		return true
	}
	return false
}

func (c *Core) inCS() bool { return c.ctx != nil && c.ctx.csDepth > 0 }

// ---------------------------------------------------------------- retire --

func (c *Core) retireStage(now uint64) {
	width := c.cfg.IssueWidth
	retired := 0
	var stallCat stats.Category
	stalled := false
	for retired < width && c.robLen() > 0 {
		seq := c.headSeq
		i := seq & c.robMask
		e := &c.rob[i]
		complete := e.complete
		ok, cat := c.tryRetire(e, now)
		if e.complete != complete && e.state == stExec && e.in.Dest != trace.NoReg {
			// Retirement re-timed the result (a lock acquire's
			// read-modify-write, an SC store performing).
			c.retimed(seq, now)
		}
		if !ok {
			stallCat, stalled = cat, true
			break
		}
		op := e.in.Op
		k := opKinds[op]
		if k&kMem != 0 {
			c.memInROB--
		}
		switch op {
		case trace.OpMemBar, trace.OpLockAcquire:
			c.fenceCount--
			c.orderDrop(i)
		case trace.OpLoad, trace.OpStore:
			c.orderDrop(i)
		}
		if k&kBranch != 0 {
			c.unresolved--
			if seq == c.blockBranch {
				c.resumeAt = e.complete + uint64(c.cfg.BranchRestart)
				c.blockBranch = 0
			}
		}
		c.ctx.Retired++
		c.Retired++
		if c.trc != nil {
			c.trc.RetireSlot(c.id, e.in.PC, 1/float64(width))
		}
		c.headSeq++
		retired++
		if e.complete > now && e.in.Dest != trace.NoReg {
			// Consumers of a retired producer no longer wait for it.
			c.retimed(seq, now)
		}
	}
	c.Bk[stats.Busy] += float64(retired) / float64(width)
	if retired == width {
		return
	}
	frac := float64(width-retired) / float64(width)
	stallPC := uint64(0)
	if stalled {
		stallPC = c.rob[c.headSeq&c.robMask].in.PC
	} else {
		// Window empty: charge the fetch-side reason (PC 0 marks the
		// frontend in the stall profile).
		if c.pendingSys || c.streamEnded {
			return // transition cycles; the scheduler accounts switches
		}
		if c.stallInstr {
			stallCat = stats.Instr
		} else {
			stallCat = stats.CPUStall
		}
	}
	c.Bk[stallCat] += frac
	if c.trc != nil {
		c.trc.StallSlot(c.id, c.ctx.ID, stallPC, stallCat, frac, now)
	}
}

// readCategory maps a load's service point to its stall category.
func readCategory(class memsys.Class, tlbMiss bool) stats.Category {
	if tlbMiss && class == memsys.ClassL1 {
		return stats.ReadDTLB
	}
	switch class {
	case memsys.ClassL1:
		return stats.ReadL1
	case memsys.ClassL2:
		return stats.ReadL2
	case memsys.ClassLocal:
		return stats.ReadLocal
	case memsys.ClassRemote:
		return stats.ReadRemote
	case memsys.ClassRemoteDirty:
		return stats.ReadDirty
	}
	return stats.ReadL1
}

// tryRetire attempts to retire head entry e, returning the stall
// category on failure.
func (c *Core) tryRetire(e *robEntry, now uint64) (bool, stats.Category) {
	switch e.in.Op {
	case trace.OpLoad:
		if e.state != stExec {
			if e.fetchDone > now {
				return false, stats.Instr
			}
			return false, stats.ReadL1 // address generation / dependence
		}
		if e.flags&fViolated != 0 {
			// Speculative-load ordering violation: squash and re-execute
			// from this load (recovery as for branch mispredictions).
			c.rollback(c.headSeq, now)
			c.Violations++
			return false, stats.ReadL1
		}
		if e.complete > now {
			return false, readCategory(e.class, e.flags&fTLBMiss != 0)
		}
		return true, 0

	case trace.OpStore:
		if e.state != stExec {
			if e.fetchDone > now {
				return false, stats.Instr
			}
			return false, stats.ReadL1 // address generation / dependence
		}
		if c.cfg.Consistency == config.SC {
			// SC: the store performs at the head of the window and blocks
			// retirement until globally performed.
			if e.flags&fIssuedMem == 0 {
				res := c.mem.DataWrite(e.in.Addr, e.in.PC, now, c.inCS())
				e.flags |= fIssuedMem
				e.complete = res.Done
				e.class = res.Class
				if c.cfg.DebugChecks {
					c.dbgCheckStorePerform(e.complete, e.in.PC)
				}
				if c.ctx.tx != nil {
					c.trackWrite(res.LineAddr)
				}
			}
			if e.complete > now {
				return false, stats.Write
			}
			return true, 0
		}
		// PC/RC: retire into the write buffer.
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return false, stats.Write
		}
		c.wbuf = append(c.wbuf, wbufEntry{addr: e.in.Addr, pc: e.in.PC, inCS: c.inCS()})
		c.wbUnissued++
		return true, 0

	case trace.OpLockAcquire:
		if e.fetchDone > now {
			return false, stats.Instr
		}
		return c.latch.acquire(c, e, now)

	case trace.OpLockRelease:
		if e.fetchDone > now {
			return false, stats.Instr
		}
		return c.latch.release(c, e, now)

	case trace.OpMemBar:
		// Full barrier: all prior memory operations performed and the
		// write buffer drained (older window entries retired by induction).
		if c.wbufLen() != 0 {
			return false, stats.Sync
		}
		return true, 0

	case trace.OpWriteBar:
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return false, stats.Sync
		}
		c.wbuf = append(c.wbuf, wbufEntry{isWMB: true})
		return true, 0

	case trace.OpPrefetch, trace.OpPrefetchX:
		if e.fetchDone > now {
			return false, stats.Instr
		}
		if e.flags&fIssuedMem == 0 {
			c.mem.Prefetch(e.in.Addr, e.in.PC, now, e.in.Op == trace.OpPrefetchX, c.inCS())
			e.flags |= fIssuedMem
		}
		return true, 0

	case trace.OpFlush:
		if e.fetchDone > now {
			return false, stats.Instr
		}
		if c.cfg.Consistency == config.SC {
			// Under SC all prior stores have performed by the time the
			// flush reaches the head; execute directly.
			c.mem.Flush(e.in.Addr, now)
			return true, 0
		}
		// PC/RC: queue behind the buffered stores so the flush executes
		// once they perform, without stalling retirement (the hint is off
		// the critical path, as in the paper).
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return false, stats.Write
		}
		c.wbuf = append(c.wbuf, wbufEntry{addr: e.in.Addr, isFlush: true})
		return true, 0

	default: // ALU and branches
		if e.state != stExec {
			if e.fetchDone > now {
				return false, stats.Instr
			}
			return false, stats.CPUStall
		}
		if e.complete > now {
			return false, stats.CPUStall
		}
		return true, 0
	}
}

// rollback squashes the window from fromSeq on, resetting the squashed
// instructions for re-execution after a pipeline-restart penalty (the
// recovery mechanism is the one used for branch mispredictions).
func (c *Core) rollback(fromSeq, now uint64) {
	c.Rollbacks++
	width := uint64(c.cfg.IssueWidth)
	for seq := fromSeq; seq < c.tailSeq; seq++ {
		e := &c.rob[seq&c.robMask]
		wasExec := e.state == stExec
		refetch := now + uint64(c.cfg.BranchRestart) + (seq-fromSeq)/width
		e.fetchDone = maxU(e.fetchDone, refetch)
		e.state = stWaiting
		e.flags &= fMispred
		e.complete = 0
		e.addrDone = 0
		e.lineAddr = 0
		e.class = 0
		e.cls = stepClass(e.in.Op, 0)
		if execAtRetire(e.in.Op) {
			e.state = stExec
			e.complete = e.fetchDone
		}
		if wasExec && e.state != stExec {
			c.waiting++
		}
	}
	c.rebuildSched(now)
}

// ---------------------------------------------------------- write buffer --

// drainWbuf issues and retires buffered stores per the consistency model:
// RC overlaps stores freely between WMB markers; PC issues one store at a
// time in FIFO order.
func (c *Core) drainWbuf(now uint64) {
	if c.wbufLen() == 0 {
		return
	}
	// Only a store not yet issued to memory needs the scan; the stores
	// already issued just wait at the front to perform.
	switch issue := c.wbUnissued > 0; {
	case issue && c.cfg.Consistency == config.RC:
		allPriorDone := true
		for i := c.wbHead; i < len(c.wbuf); i++ {
			w := &c.wbuf[i]
			if w.isWMB {
				if !allPriorDone {
					break
				}
				continue
			}
			if w.isFlush {
				continue
			}
			if !w.issued {
				res := c.mem.DataWrite(w.addr, w.pc, now, w.inCS)
				w.issued = true
				c.wbUnissued--
				w.done = res.Done
				if c.ctx.tx != nil {
					c.trackWrite(res.LineAddr)
				}
			}
			if w.done > now {
				allPriorDone = false
			}
		}
	case issue && c.cfg.Consistency == config.PC:
		for i := c.wbHead; i < len(c.wbuf); i++ {
			w := &c.wbuf[i]
			if w.isWMB || w.isFlush {
				continue
			}
			if !w.issued {
				res := c.mem.DataWrite(w.addr, w.pc, now, w.inCS)
				w.issued = true
				c.wbUnissued--
				w.done = res.Done
				if c.cfg.DebugChecks {
					c.dbgCheckStoreFIFO(now, w.done, w.pc)
				}
				if c.ctx.tx != nil {
					c.trackWrite(res.LineAddr)
				}
			}
			// Strict FIFO: the next store may not issue until this one
			// has performed.
			if w.done > now {
				break
			}
		}
	}
	// Retire performed entries from the front. A flush at the front has
	// seen all prior stores perform; it executes now, off the critical
	// path.
	for c.wbufLen() > 0 {
		w := &c.wbuf[c.wbHead]
		switch {
		case w.isWMB:
		case w.isFlush:
			c.mem.Flush(w.addr, now)
		case w.issued && w.done <= now:
			if w.release {
				c.locks.Release(w.addr, c.ctx.ID, w.done)
				if c.trc != nil {
					c.trc.LockReleased(c.id, c.ctx.ID, w.addr, w.done)
				}
				if w.flushAfter {
					// Hints policy: push the released latch line home.
					c.mem.Flush(w.addr, now)
				}
			}
		default:
			return
		}
		c.wbHead++
	}
	if c.wbHead == len(c.wbuf) {
		// Keep the backing array: the buffer refills constantly and a nil
		// reset made every refill reallocate.
		c.wbuf = c.wbuf[:0]
		c.wbHead = 0
	}
}
