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
			i := c.blockBranch & c.robMask
			if c.rState[i] == stExec && c.rComplete[i] <= now {
				c.resumeAt = c.rComplete[i] + uint64(c.cfg.BranchRestart)
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
	lineShift := c.mem.L1I().LineShift()
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if len(c.fetchQ)-c.fqHead >= c.cfg.FetchBufferEntries {
			return
		}
		if c.unresolved >= c.cfg.MaxSpeculatedBr {
			c.stallInstr = false
			return
		}
		// The instruction buffer is a reused field: a local escapes to the
		// heap through the Stream interface call, at one allocation per
		// fetched instruction (the simulator's dominant allocation site).
		in := &c.inScratch
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
		c.fetchQ = append(c.fetchQ, fqEntry{in: *in, fetchDone: avail, mispred: mis})
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
		if c.fqHead >= len(c.fetchQ) {
			break
		}
		fe := &c.fetchQ[c.fqHead]
		if fe.fetchDone > now {
			break
		}
		if c.robLen() >= c.cfg.WindowSize {
			break
		}
		isMem := fe.in.Op.IsMem()
		if isMem && c.memInROB >= c.cfg.MemQueueSize {
			break
		}
		seq := c.tailSeq
		i := seq & c.robMask
		c.rIn[i] = fe.in
		c.rOp[i] = fe.in.Op
		c.rState[i] = stWaiting
		flags := uint8(0)
		if fe.mispred {
			flags = fMispred
		}
		c.rFlags[i] = flags
		c.rFetchDone[i] = fe.fetchDone
		c.rProd1[i], c.rProd2[i] = noProd, noProd
		c.rComplete[i] = 0
		c.rAddrDone[i] = 0
		c.rLineAddr[i] = 0
		c.rClass[i] = 0
		c.rWake[i] = 0
		c.rAt[i] = 0
		if s := fe.in.Src1; s != trace.NoReg {
			c.rProd1[i] = c.rename[s]
		}
		if s := fe.in.Src2; s != trace.NoReg {
			c.rProd2[i] = c.rename[s]
		}
		if d := fe.in.Dest; d != trace.NoReg {
			c.rename[d] = seq
		}
		if isMem {
			c.memInROB++
		}
		switch fe.in.Op {
		case trace.OpMemBar, trace.OpWriteBar, trace.OpLockAcquire, trace.OpLockRelease,
			trace.OpPrefetch, trace.OpPrefetchX, trace.OpFlush:
			// These execute at retirement (fences, locks, hints); mark them
			// executed so they do not block in-order issue.
			c.rState[i] = stExec
			c.rComplete[i] = fe.fetchDone
		}
		switch fe.in.Op {
		case trace.OpMemBar, trace.OpLockAcquire:
			c.fenceCount++
		}
		c.orderAdd(i)
		if c.rState[i] != stExec {
			c.waiting++
			c.place(seq, now)
		}
		if fe.mispred {
			c.blockBranch = seq
		}
		c.tailSeq++
		c.fqHead++
	}
	if c.fqHead >= len(c.fetchQ) {
		c.fetchQ = c.fetchQ[:0]
		c.fqHead = 0
	}
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
		complete := c.rComplete[i]
		ok, cat := c.tryRetire(i, now)
		if c.rComplete[i] != complete && c.rState[i] == stExec && c.rIn[i].Dest != trace.NoReg {
			// Retirement re-timed the result (a lock acquire's
			// read-modify-write, an SC store performing).
			c.retimed(seq, now)
		}
		if !ok {
			stallCat, stalled = cat, true
			break
		}
		op := c.rOp[i]
		if op.IsMem() {
			c.memInROB--
		}
		switch op {
		case trace.OpMemBar, trace.OpLockAcquire:
			c.fenceCount--
			c.orderDrop(i)
		case trace.OpLoad, trace.OpStore:
			c.orderDrop(i)
		}
		if op.IsBranch() {
			c.unresolved--
			if seq == c.blockBranch {
				c.resumeAt = c.rComplete[i] + uint64(c.cfg.BranchRestart)
				c.blockBranch = 0
			}
		}
		c.ctx.Retired++
		c.Retired++
		if c.trc != nil {
			c.trc.RetireSlot(c.id, c.rIn[i].PC, 1/float64(width))
		}
		c.headSeq++
		retired++
		if c.rComplete[i] > now && c.rIn[i].Dest != trace.NoReg {
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
		stallPC = c.rIn[c.headSeq&c.robMask].PC
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

// tryRetire attempts to retire the head entry (ring index i), returning
// the stall category on failure.
func (c *Core) tryRetire(i, now uint64) (bool, stats.Category) {
	switch c.rOp[i] {
	case trace.OpLoad:
		if c.rState[i] != stExec {
			if c.rFetchDone[i] > now {
				return false, stats.Instr
			}
			return false, stats.ReadL1 // address generation / dependence
		}
		if c.rFlags[i]&fViolated != 0 {
			// Speculative-load ordering violation: squash and re-execute
			// from this load (recovery as for branch mispredictions).
			c.rollback(c.headSeq, now)
			c.Violations++
			return false, stats.ReadL1
		}
		if c.rComplete[i] > now {
			return false, readCategory(c.rClass[i], c.rFlags[i]&fTLBMiss != 0)
		}
		return true, 0

	case trace.OpStore:
		if c.rState[i] != stExec {
			if c.rFetchDone[i] > now {
				return false, stats.Instr
			}
			return false, stats.ReadL1 // address generation / dependence
		}
		if c.cfg.Consistency == config.SC {
			// SC: the store performs at the head of the window and blocks
			// retirement until globally performed.
			if c.rFlags[i]&fIssuedMem == 0 {
				res := c.mem.DataWrite(c.rIn[i].Addr, c.rIn[i].PC, now, c.inCS())
				c.rFlags[i] |= fIssuedMem
				c.rComplete[i] = res.Done
				c.rClass[i] = res.Class
				if c.cfg.DebugChecks {
					c.dbgCheckStorePerform(c.rComplete[i], c.rIn[i].PC)
				}
				if c.ctx.tx != nil {
					c.trackWrite(res.LineAddr)
				}
			}
			if c.rComplete[i] > now {
				return false, stats.Write
			}
			return true, 0
		}
		// PC/RC: retire into the write buffer.
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return false, stats.Write
		}
		c.wbuf = append(c.wbuf, wbufEntry{addr: c.rIn[i].Addr, pc: c.rIn[i].PC, inCS: c.inCS()})
		return true, 0

	case trace.OpLockAcquire:
		if c.rFetchDone[i] > now {
			return false, stats.Instr
		}
		return c.latch.acquire(c, i, now)

	case trace.OpLockRelease:
		if c.rFetchDone[i] > now {
			return false, stats.Instr
		}
		return c.latch.release(c, i, now)

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
		if c.rFetchDone[i] > now {
			return false, stats.Instr
		}
		if c.rFlags[i]&fIssuedMem == 0 {
			c.mem.Prefetch(c.rIn[i].Addr, c.rIn[i].PC, now, c.rOp[i] == trace.OpPrefetchX, c.inCS())
			c.rFlags[i] |= fIssuedMem
		}
		return true, 0

	case trace.OpFlush:
		if c.rFetchDone[i] > now {
			return false, stats.Instr
		}
		if c.cfg.Consistency == config.SC {
			// Under SC all prior stores have performed by the time the
			// flush reaches the head; execute directly.
			c.mem.Flush(c.rIn[i].Addr, now)
			return true, 0
		}
		// PC/RC: queue behind the buffered stores so the flush executes
		// once they perform, without stalling retirement (the hint is off
		// the critical path, as in the paper).
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return false, stats.Write
		}
		c.wbuf = append(c.wbuf, wbufEntry{addr: c.rIn[i].Addr, isFlush: true})
		return true, 0

	default: // ALU and branches
		if c.rState[i] != stExec {
			if c.rFetchDone[i] > now {
				return false, stats.Instr
			}
			return false, stats.CPUStall
		}
		if c.rComplete[i] > now {
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
		i := seq & c.robMask
		wasExec := c.rState[i] == stExec
		refetch := now + uint64(c.cfg.BranchRestart) + (seq-fromSeq)/width
		c.rFetchDone[i] = maxU(c.rFetchDone[i], refetch)
		c.rState[i] = stWaiting
		c.rFlags[i] &= fMispred
		c.rComplete[i] = 0
		c.rAddrDone[i] = 0
		c.rLineAddr[i] = 0
		c.rClass[i] = 0
		switch c.rOp[i] {
		case trace.OpMemBar, trace.OpWriteBar, trace.OpLockAcquire, trace.OpLockRelease,
			trace.OpPrefetch, trace.OpPrefetchX, trace.OpFlush:
			c.rState[i] = stExec
			c.rComplete[i] = c.rFetchDone[i]
		}
		if wasExec && c.rState[i] != stExec {
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
	switch c.cfg.Consistency {
	case config.RC:
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
				w.done = res.Done
				if c.ctx.tx != nil {
					c.trackWrite(res.LineAddr)
				}
			}
			if w.done > now {
				allPriorDone = false
			}
		}
	case config.PC:
		for i := c.wbHead; i < len(c.wbuf); i++ {
			w := &c.wbuf[i]
			if w.isWMB || w.isFlush {
				continue
			}
			if !w.issued {
				res := c.mem.DataWrite(w.addr, w.pc, now, w.inCS)
				w.issued = true
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
		w := c.wbuf[c.wbHead]
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
