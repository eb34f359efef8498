package cpu

import (
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// EventNever is the NextEvent result of a component with no self-generated
// future event: it will only act again after some other component does.
const EventNever = ^uint64(0)

// LockProber is optionally implemented by a LockManager to expose the next
// cycle at which a failing TryAcquire could change outcome. NextTry returns
// now+1 when an attempt could succeed (or anything else might change)
// immediately, the lock's freeAt when it is released but still cooling
// down, and EventNever when it is held by another process — in that case
// the holder's own pipeline events (the releasing store performing) bound
// the wait, and the release drops the spinner's cached bound in core.Run.
type LockProber interface {
	NextTry(addr uint64, proc int, now uint64) uint64
}

// NextEvent returns a conservative lower bound on the next cycle at which
// this core could do anything beyond constant per-cycle bookkeeping
// (occupancy histogram bumps and repeated identical stall charges). A
// result of now+1 means "cannot prove the next cycle is quiet"; EventNever
// means the core is fully event-free and will only be woken by another
// component. Any cycle t with now < t < NextEvent(now) is provably a
// steady cycle: Tick(t) would mutate no machine state, perform no memory
// access, and charge exactly the same stall category as Tick(NextEvent-1)
// — which is what lets core.Run bulk-apply the span with FastForward.
//
// The bound is deliberately conservative (early wakes are always safe):
// every in-flight completion time is treated as an event even when it
// would enable nothing.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.ctx == nil {
		return EventNever
	}
	w := c.wbufNextEvent(now)
	if w <= now+1 {
		return now + 1
	}
	if c.robLen() > 0 {
		if t := c.retireNextEvent(now); t < w {
			w = t
		}
		if w <= now+1 {
			return now + 1
		}
		if t := c.robNextEvent(now); t < w {
			w = t
		}
		if w <= now+1 {
			return now + 1
		}
	}
	if t := c.dispatchNextEvent(now); t < w {
		w = t
	}
	if w <= now+1 {
		return now + 1
	}
	if t := c.fetchNextEvent(now); t < w {
		w = t
	}
	if w <= now+1 {
		return now + 1
	}
	return w
}

// wbufNextEvent bounds the next cycle drainWbuf would issue, retire, or
// unblock anything.
func (c *Core) wbufNextEvent(now uint64) uint64 {
	if c.wbufLen() == 0 {
		return EventNever
	}
	front := &c.wbuf[c.wbHead]
	if front.isWMB || front.isFlush || !front.issued {
		// Barriers and flushes at the front pop (and flushes access memory)
		// on the very next tick; an unissued front store would issue.
		return now + 1
	}
	w := front.done
	if w <= now {
		return now + 1
	}
	if c.cfg.Consistency == config.RC {
		// Stores behind a blocking WMB issue the cycle the barrier's
		// predecessors have all performed.
		var maxDone uint64
		for i := c.wbHead; i < len(c.wbuf); i++ {
			e := &c.wbuf[i]
			if e.isWMB {
				if maxDone > now {
					if maxDone < w {
						w = maxDone
					}
					break
				}
				continue
			}
			if e.isFlush {
				continue
			}
			if !e.issued {
				return now + 1
			}
			if e.done > maxDone {
				maxDone = e.done
			}
		}
	}
	// PC: strict FIFO — the next store issues when the front one performs,
	// which is already w. SC never buffers plain stores.
	return w
}

// retireNextEvent bounds the next cycle tryRetire on the head entry would
// either succeed, mutate state, or change its failure category. EventNever
// means head progress is gated purely on other mirrors (write-buffer
// drain, an older producer's issue event).
func (c *Core) retireNextEvent(now uint64) uint64 {
	e := &c.rob[c.headSeq&c.robMask]
	switch e.in.Op {
	case trace.OpLoad:
		if e.state != stExec {
			if e.fetchDone > now {
				return e.fetchDone // failure category flips Instr -> ReadL1
			}
			return EventNever // steady ReadL1; progress via the issue mirror
		}
		if e.flags&fViolated != 0 {
			return now + 1 // rollback fires on the next tick
		}
		if e.complete > now {
			return e.complete
		}
		return now + 1
	case trace.OpStore:
		if e.state != stExec {
			if e.fetchDone > now {
				return e.fetchDone
			}
			return EventNever
		}
		if c.cfg.Consistency == config.SC {
			if e.flags&fIssuedMem == 0 {
				return now + 1 // would perform the store at the head
			}
			if e.complete > now {
				return e.complete
			}
			return now + 1
		}
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return EventNever // gated on the write buffer draining
		}
		return now + 1
	case trace.OpLockAcquire:
		if e.fetchDone > now {
			return e.fetchDone
		}
		if !c.latchMirrored {
			// The HTM policy's per-cycle resolution has no mirror; a lock op
			// at the head simply disables fast-forward (conservative bound).
			return now + 1
		}
		if e.flags&fIssuedMem == 0 {
			// Spinning. Steady only once the first failing TryAcquire has
			// run (waited set: LockWaits and the tracer's contention window
			// are already open); after that every spin cycle repeats the
			// same counter bumps, which FastForward applies in bulk.
			if e.flags&fWaited == 0 || c.prober == nil {
				return now + 1
			}
			return c.prober.NextTry(e.in.Addr, c.ctx.ID, now)
		}
		if e.complete > now {
			return e.complete
		}
		return now + 1
	case trace.OpLockRelease:
		if e.fetchDone > now {
			return e.fetchDone
		}
		if !c.latchMirrored {
			return now + 1
		}
		if c.cfg.Consistency == config.SC {
			if e.flags&fIssuedMem == 0 {
				return now + 1
			}
			if e.complete > now {
				return e.complete
			}
			return now + 1
		}
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return EventNever
		}
		return now + 1
	case trace.OpMemBar:
		if c.wbufLen() != 0 {
			return EventNever // gated on the write buffer draining
		}
		return now + 1
	case trace.OpWriteBar:
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return EventNever
		}
		return now + 1
	case trace.OpPrefetch, trace.OpPrefetchX:
		if e.fetchDone > now {
			return e.fetchDone
		}
		return now + 1
	case trace.OpFlush:
		if e.fetchDone > now {
			return e.fetchDone
		}
		if c.cfg.Consistency != config.SC && c.wbufLen() >= c.cfg.WriteBufEntries {
			return EventNever
		}
		return now + 1
	default: // ALU and branches
		if e.state != stExec {
			if e.fetchDone > now {
				return e.fetchDone
			}
			return EventNever // steady CPUStall; progress via the issue mirror
		}
		if e.complete > now {
			return e.complete
		}
		return now + 1
	}
}

// robNextEvent bounds the next cycle the issue stage would start any
// instruction, mirroring issueStage's program-order walk over the whole
// window. Every in-flight completion is also an event: completions wake
// consumers, perform loads, resolve branches and enable retirement.
func (c *Core) robNextEvent(now uint64) uint64 {
	if !c.cfg.InOrder && c.schedActsNext(now) {
		return now + 1 // exactly what the walk below would return
	}
	w := uint64(EventNever)
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		i := seq & c.robMask
		e := &c.rob[i]
		if e.state == stExec {
			if t := e.complete; t > now && t < w {
				w = t
			}
		} else {
			if t := c.entryIssueEvent(seq, i, now); t < w {
				w = t
			}
			if c.cfg.InOrder {
				// In-order issue stops at the first non-executing entry;
				// younger entries cannot act before it does.
				break
			}
		}
		if w <= now+1 {
			return now + 1
		}
	}
	return w
}

// entryIssueEvent bounds when not-yet-executing entry seq (ring index i)
// could make issue progress. EventNever means it is gated on another
// entry's event (a non-executing producer, or a consistency decision that
// only changes when an older instruction completes or retires — both
// already candidate events).
//
// A held load is EventNever outright: robNextEvent asks schedActsNext
// first, which found that the oldest held load cannot act, and the
// consistency model then holds every younger one as well.
func (c *Core) entryIssueEvent(seq, i, now uint64) uint64 {
	if c.isHeld(i) {
		return EventNever
	}
	ready, _, blocked := c.operands(i) // cycle fetch and source operands are available
	if blocked {
		return EventNever
	}
	op, addr := c.rob[i].in.Op, c.rob[i].addrDone
	switch {
	case op != trace.OpLoad && op != trace.OpStore || addr == 0:
		return maxU(ready, now+1) // execution or address generation
	case addr > now:
		return addr // cache access or store completion (or consistency decision)
	case op == trace.OpStore || c.loadCanAct(seq, i, now):
		return now + 1
	}
	return EventNever // a held load unblocks only via older entries' events
}

// dispatchNextEvent bounds the next cycle the dispatch stage would move an
// instruction into the window.
func (c *Core) dispatchNextEvent(now uint64) uint64 {
	if c.fqLen == 0 {
		return EventNever
	}
	if c.robLen() >= c.cfg.WindowSize {
		return EventNever // gated on retirement freeing a window slot
	}
	fe := &c.rob[c.tailSeq&c.robMask]
	if fe.in.Op.IsMem() && c.memInROB >= c.cfg.MemQueueSize {
		return EventNever // gated on a memory op retiring
	}
	return maxU(fe.fetchDone, now+1)
}

// fetchNextEvent bounds the next cycle the fetch stage would consume the
// stream, redirect, or touch the instruction cache.
func (c *Core) fetchNextEvent(now uint64) uint64 {
	if c.pendingSys || c.streamEnded {
		return EventNever // drained cores switch via the scheduler's mirror
	}
	if c.blockBranch != 0 {
		if !c.live(c.blockBranch) {
			return now + 1 // cleared (and fetch resumes) next tick
		}
		e := &c.rob[c.blockBranch&c.robMask]
		if e.state != stExec {
			return EventNever // gated on the branch's own issue event
		}
		if e.complete > now {
			return e.complete // redirect computed when the branch resolves
		}
		return now + 1
	}
	if now < c.resumeAt {
		return c.resumeAt
	}
	if now < c.fetchReady {
		return c.fetchReady
	}
	if c.fqLen >= c.cfg.FetchBufferEntries {
		return EventNever // gated on dispatch draining the fetch queue
	}
	if c.unresolved >= c.cfg.MaxSpeculatedBr {
		return EventNever // gated on a speculated branch retiring
	}
	return now + 1 // fetch is live: it consumes the stream every cycle
}

// steadyStall mirrors tryRetire's failure path without side effects,
// returning the stall category and PC every cycle of a steady span is
// charged with, plus whether the head is spinning on a lock (per-cycle
// LockTries/LockSpins bumps). t is any cycle inside the span; NextEvent
// guarantees the answer is constant across it.
func (c *Core) steadyStall(t uint64) (stats.Category, uint64, bool) {
	if c.robLen() == 0 {
		// Empty window: the frontend is charged (PC 0 in the profile).
		if c.stallInstr {
			return stats.Instr, 0, false
		}
		return stats.CPUStall, 0, false
	}
	e := &c.rob[c.headSeq&c.robMask]
	pc := e.in.PC
	switch e.in.Op {
	case trace.OpLoad:
		if e.state != stExec {
			if e.fetchDone > t {
				return stats.Instr, pc, false
			}
			return stats.ReadL1, pc, false
		}
		return readCategory(e.class, e.flags&fTLBMiss != 0), pc, false
	case trace.OpStore:
		if e.state != stExec {
			if e.fetchDone > t {
				return stats.Instr, pc, false
			}
			return stats.ReadL1, pc, false
		}
		return stats.Write, pc, false
	case trace.OpLockAcquire:
		if e.fetchDone > t {
			return stats.Instr, pc, false
		}
		return stats.Sync, pc, e.flags&fIssuedMem == 0
	case trace.OpLockRelease:
		if e.fetchDone > t {
			return stats.Instr, pc, false
		}
		if c.cfg.Consistency == config.SC {
			return stats.Sync, pc, false
		}
		return stats.Write, pc, false
	case trace.OpMemBar, trace.OpWriteBar:
		return stats.Sync, pc, false
	case trace.OpPrefetch, trace.OpPrefetchX:
		return stats.Instr, pc, false
	case trace.OpFlush:
		if e.fetchDone > t {
			return stats.Instr, pc, false
		}
		return stats.Write, pc, false // PC/RC flush behind a full buffer
	default:
		if e.state != stExec && e.fetchDone > t {
			return stats.Instr, pc, false
		}
		return stats.CPUStall, pc, false
	}
}

// fetchStallWrite mirrors the stallInstr assignment fetchStage performs on
// every cycle of a steady span (fetch gated in the same state throughout).
// ok is false when fetchStage would leave the flag untouched. The write is
// the one piece of state a gated fetch stage still mutates per cycle; it
// feeds the next cycle's empty-window charge category (Instr vs CPUStall),
// so FastForward must replay it.
func (c *Core) fetchStallWrite(now uint64) (val, ok bool) {
	if c.pendingSys || c.streamEnded {
		return false, false
	}
	if c.blockBranch != 0 {
		// Unresolved across the span (resolution is a NextEvent candidate).
		return false, true
	}
	if now < c.resumeAt {
		return false, true
	}
	if now < c.fetchReady {
		return true, true
	}
	if c.fqLen >= c.cfg.FetchBufferEntries {
		return false, false
	}
	if c.unresolved >= c.cfg.MaxSpeculatedBr {
		return false, true
	}
	return false, false // live fetch never yields a steady span
}

// FastForward bulk-applies the per-cycle bookkeeping of the steady cycles
// [from, to] (inclusive), which core.Run has proven event-free via
// NextEvent: the occupancy histogram bump, the full-width stall charge,
// the spin counters, the gated fetch stage's stallInstr write, and the
// tracer's coalesced stall span — each bit-identical to ticking the core
// through every cycle.
func (c *Core) FastForward(from, to uint64) {
	if c.ctx == nil {
		return
	}
	c.nowCycle = to
	n := to - from + 1
	if rl := c.robLen(); rl == 0 {
		c.ROBOcc[0] += n
	} else if b := (4*rl + c.cfg.WindowSize - 1) / c.cfg.WindowSize; b > 4 {
		c.ROBOcc[4] += n
	} else {
		c.ROBOcc[b] += n
	}
	if c.robLen() == 0 && (c.pendingSys || c.streamEnded) {
		return // drain-transition cycles: retireStage charges nothing
	}
	// Zero retires per steady cycle: Bk[Busy] += 0 is skipped (bitwise
	// no-op) and the full width is charged to the head stall each cycle.
	cat, pc, spinning := c.steadyStall(from)
	if spinning {
		c.LockTries += n
		c.LockSpins += n
		if c.trc != nil {
			// Re-opens the contention window if the warm-up reset cleared
			// it (otherwise a no-op, exactly like the per-cycle calls).
			c.trc.LockSpin(c.id, c.ctx.ID, pc, c.rob[c.headSeq&c.robMask].in.Addr, from)
		}
	}
	if wv, ok := c.fetchStallWrite(from); ok && wv != c.stallInstr {
		c.stallInstr = wv
		if c.robLen() == 0 {
			// Retire runs before fetch: the first span cycle is charged
			// under the pre-write flag, the rest under the new one.
			c.Bk[cat] += 1
			if c.trc != nil {
				c.trc.StallRun(c.id, c.ctx.ID, pc, cat, 1, from, from)
			}
			if n == 1 {
				return
			}
			cat2, pc2, _ := c.steadyStall(from + 1)
			stats.AddRepeat(&c.Bk[cat2], 1, n-1)
			if c.trc != nil {
				c.trc.StallRun(c.id, c.ctx.ID, pc2, cat2, 1, from+1, to)
			}
			return
		}
	}
	stats.AddRepeat(&c.Bk[cat], 1, n)
	if c.trc != nil {
		c.trc.StallRun(c.id, c.ctx.ID, pc, cat, 1, from, to)
	}
}
