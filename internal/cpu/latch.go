package cpu

import (
	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/stats"
)

// latchPolicy is the pluggable lock-acquisition path: how a lock acquire
// and its matching release execute at retirement. The policy is selected
// per-run from config.LatchPolicy; the plain policy is the pre-existing
// spin + read-modify-write path, the hints policy layers the paper's
// software prefetch+flush hints (Section 4.2) on it, and the htm policy
// elides the latch with a best-effort hardware transaction
// (internal/htm). Both hooks run with entry e at the window head and its
// fetchDone <= now already established by tryRetire.
type latchPolicy interface {
	acquire(c *Core, e *robEntry, now uint64) (bool, stats.Category)
	release(c *Core, e *robEntry, now uint64) (bool, stats.Category)
}

// LockViewer is optionally implemented by a LockManager to expose a
// non-mutating availability check: whether a TryAcquire by proc at now
// would succeed, without taking the lock. The HTM elision path uses it
// to decide whether speculation may start (a latch held by a real owner
// cannot be elided) without perturbing the lock table.
type LockViewer interface {
	LockFree(addr uint64, proc int, now uint64) bool
}

// newLatchPolicy selects the policy for cfg.
func newLatchPolicy(cfg config.Config) latchPolicy {
	switch cfg.LatchPolicy {
	case config.LatchHints:
		return plainLatch{hints: true}
	case config.LatchHTM:
		return htmLatch{}
	}
	return plainLatch{}
}

// ------------------------------------------------------------ plain/hints --

// plainLatch is the baseline path: spin on TryAcquire, then perform the
// winning read-modify-write (the migratory lock-passing transfer); the
// release is a store (direct under SC, via the write buffer under PC/RC).
//
// With hints it is the paper's software-hint treatment applied to the
// latch line itself: while spinning, a one-shot exclusive prefetch pulls
// the lock line toward the waiter so the winning read-modify-write
// performs locally; the release is followed by a flush that pushes the
// dirty latch line back to memory, converting the next waiter's dirty
// (3-hop cache-to-cache) miss into a memory service.
type plainLatch struct{ hints bool }

func (l plainLatch) acquire(c *Core, e *robEntry, now uint64) (bool, stats.Category) {
	if e.flags&fIssuedMem == 0 {
		c.LockTries++
		if !c.locks.TryAcquire(e.in.Addr, c.ctx.ID, now) {
			if e.flags&fWaited == 0 {
				c.LockWaits++
				e.flags |= fWaited
			}
			if l.hints && e.flags&fPrefetch == 0 {
				// One prefetch per contended acquire: issued alongside the
				// first failing attempt, like the hand-inserted hint.
				c.mem.Prefetch(e.in.Addr, e.in.PC, now, true, true)
				e.flags |= fPrefetch
			}
			c.LockSpins++
			if c.trc != nil {
				c.trc.LockSpin(c.id, c.ctx.ID, e.in.PC, e.in.Addr, now)
			}
			return false, stats.Sync
		}
		// The winning read-modify-write brings the lock line in
		// exclusive; this is the lock-passing (migratory) transfer.
		res := c.mem.DataWrite(e.in.Addr, e.in.PC, now, true)
		e.flags |= fIssuedMem
		e.complete = res.Done
		if c.trc != nil {
			c.trc.LockAcquired(c.id, c.ctx.ID, e.in.PC, e.in.Addr, now, e.complete)
		}
	}
	if e.complete > now {
		return false, stats.Sync
	}
	c.ctx.csDepth++
	return true, 0
}

func (l plainLatch) release(c *Core, e *robEntry, now uint64) (bool, stats.Category) {
	if c.cfg.Consistency == config.SC {
		if e.flags&fIssuedMem == 0 {
			res := c.mem.DataWrite(e.in.Addr, e.in.PC, now, true)
			e.flags |= fIssuedMem
			e.complete = res.Done
		}
		if e.complete > now {
			return false, stats.Sync
		}
		c.locks.Release(e.in.Addr, c.ctx.ID, e.complete)
		if c.trc != nil {
			c.trc.LockReleased(c.id, c.ctx.ID, e.in.Addr, e.complete)
		}
		if l.hints {
			// Release-side flush hint: push the dirty latch line home so
			// the next acquirer reads it from memory, not cache-to-cache.
			c.mem.Flush(e.in.Addr, now)
		}
		c.ctx.csDepth--
		return true, 0
	}
	if c.wbufLen() >= c.cfg.WriteBufEntries {
		return false, stats.Write
	}
	c.wbuf = append(c.wbuf, wbufEntry{addr: e.in.Addr, pc: e.in.PC, inCS: true, release: true, flushAfter: l.hints})
	c.wbUnissued++
	c.ctx.csDepth--
	return true, 0
}

// -------------------------------------------------------------------- htm --

// htmLatch elides the latch with a best-effort hardware transaction: the
// acquire subscribes the free lock line with a plain read (no
// read-modify-write, no ownership transfer — the migratory ping-pong the
// elision removes) and the critical section runs speculatively, its
// read/write set tracked at the memory-issue points. All abort handling
// is resolved while the outermost release stalls at the window head,
// driven by the transaction's per-cycle Resolve decision: retry windows
// for conflicts, then a fallback spin on the real latch, a redo of the
// measured critical section under it, and the latch read-modify-write —
// so forward progress is never speculative.
type htmLatch struct{}

// htmStallCat maps the abort cause under resolution to the stall
// category its cycles are charged to.
func htmStallCat(cause htm.AbortCause) stats.Category {
	switch cause {
	case htm.AbortCapacity:
		return stats.HTMCapacity
	case htm.AbortExplicit:
		return stats.HTMExplicit
	}
	return stats.HTMConflict
}

// htmAborted bumps the per-cause abort counter and records the trace
// event for a transaction that just aborted.
func (c *Core) htmAborted(tx *htm.Tx, line uint64) {
	switch tx.Cause() {
	case htm.AbortConflict:
		c.HTMConflictAborts++
	case htm.AbortCapacity:
		c.HTMCapacityAborts++
	default:
		c.HTMExplicitAborts++
	}
	if c.trc != nil {
		proc := -1
		if c.ctx != nil {
			proc = c.ctx.ID
		}
		c.trc.HTMAbort(c.id, proc, tx.Latch(), tx.Cause(), line, c.nowCycle)
	}
}

// lockFree reports whether a TryAcquire would succeed, without mutating
// the lock table (true when the manager exposes no view).
func (c *Core) lockFree(addr uint64, now uint64) bool {
	if c.viewer == nil {
		return true
	}
	return c.viewer.LockFree(addr, c.ctx.ID, now)
}

// tx returns the running context's transaction, creating it on first use
// (each process speculates with its own transaction context).
func (c *Core) tx() *htm.Tx {
	if c.ctx.tx == nil {
		c.ctx.tx = htm.New(c.htmCfg)
	}
	return c.ctx.tx
}

func (htmLatch) acquire(c *Core, e *robEntry, now uint64) (bool, stats.Category) {
	tx := c.tx()
	if e.flags&fIssuedMem == 0 {
		if tx.Phase() == htm.PhaseIdle {
			// Top-level acquire: speculation can only start on a free
			// latch (a real owner's critical section cannot be elided
			// around); wait like a plain spinner until it frees.
			if !c.lockFree(e.in.Addr, now) {
				c.LockTries++
				if e.flags&fWaited == 0 {
					c.LockWaits++
					e.flags |= fWaited
				}
				c.LockSpins++
				if c.trc != nil {
					c.trc.LockSpin(c.id, c.ctx.ID, e.in.PC, e.in.Addr, now)
				}
				return false, stats.Sync
			}
			// Elide: subscribe the latch line with a plain shared read —
			// no read-modify-write, no exclusive transfer. Every
			// concurrent speculator holds the line shared; only a
			// fallback acquirer's real write invalidates them.
			res := c.mem.DataRead(e.in.Addr, e.in.PC, now, true)
			e.flags |= fIssuedMem
			e.complete = res.Done
			e.lineAddr = res.LineAddr
			c.HTMBegins++
			tx.Begin(e.in.Addr, now)
			if c.trc != nil {
				c.trc.HTMBegin(c.id, c.ctx.ID, e.in.PC, e.in.Addr, now)
			}
			if tx.TrackRead(res.LineAddr) {
				c.htmAborted(tx, res.LineAddr)
			}
		} else {
			// Nested acquire flattens into the running transaction. A
			// nested latch held by a real (fallback) owner cannot be
			// waited on inside the speculation: explicit abort.
			avail := c.lockFree(e.in.Addr, now)
			res := c.mem.DataRead(e.in.Addr, e.in.PC, now, true)
			e.flags |= fIssuedMem
			e.complete = res.Done
			e.lineAddr = res.LineAddr
			if tx.Enter(avail) {
				c.htmAborted(tx, res.LineAddr)
			} else if tx.TrackRead(res.LineAddr) {
				c.htmAborted(tx, res.LineAddr)
			}
		}
	}
	if e.complete > now {
		return false, stats.Sync
	}
	c.ctx.csDepth++
	return true, 0
}

func (htmLatch) release(c *Core, e *robEntry, now uint64) (bool, stats.Category) {
	tx := c.ctx.tx
	if tx == nil || tx.Phase() == htm.PhaseIdle {
		// No transaction pairs with this release (an acquire retired
		// before the policy engaged); take the plain path.
		return plainLatch{}.release(c, e, now)
	}
	if tx.Depth() > 1 {
		tx.Exit()
		c.ctx.csDepth--
		return true, 0
	}
	// The transaction's buffered stores must perform before it resolves:
	// commit requires its writes globally performed (eager version
	// management), and abort detection must see them in the write set.
	if c.wbufLen() != 0 {
		return false, stats.Sync
	}
	// Outermost release: drive the resolution state machine one cycle.
	switch tx.Resolve(now) {
	case htm.DecideCommit:
		c.HTMCommits++
		if c.trc != nil {
			c.trc.HTMCommit(c.id, c.ctx.ID, e.in.PC, tx.Latch(), tx.BeginCycle(), now)
		}
		tx.Commit()
		c.ctx.csDepth--
		return true, 0

	case htm.DecideWait:
		// Retry backoff / re-execution, or the redo under the fallback
		// latch: stall, charged to the abort cause being resolved.
		return false, htmStallCat(tx.Cause())

	case htm.DecideSpin:
		c.LockTries++
		if !c.locks.TryAcquire(e.in.Addr, c.ctx.ID, now) {
			if e.flags&fWaited == 0 {
				c.LockWaits++
				e.flags |= fWaited
			}
			c.LockSpins++
			if c.trc != nil {
				c.trc.LockSpin(c.id, c.ctx.ID, e.in.PC, e.in.Addr, now)
			}
			return false, htmStallCat(tx.Cause())
		}
		// Fallback: the real latch is ours. The acquire read-modify-write
		// performs now — invalidating the latch line every still-
		// speculating core subscribed, which is what keeps fallback and
		// elision coherent.
		c.HTMFallbacks++
		res := c.mem.DataWrite(e.in.Addr, e.in.PC, now, true)
		e.flags |= fIssuedMem
		e.complete = res.Done
		if c.trc != nil {
			c.trc.HTMFallback(c.id, c.ctx.ID, e.in.PC, e.in.Addr, tx.Cause(), now)
			c.trc.LockAcquired(c.id, c.ctx.ID, e.in.PC, e.in.Addr, now, res.Done)
		}
		tx.FallbackAcquired(res.Done)
		return false, htmStallCat(tx.Cause())

	case htm.DecideRMW:
		// Redo finished under the latch; the releasing store performs
		// and frees it.
		if e.flags&fPrefetch == 0 {
			res := c.mem.DataWrite(e.in.Addr, e.in.PC, now, true)
			e.flags |= fPrefetch
			e.complete = res.Done
		}
		if e.complete > now {
			return false, htmStallCat(tx.Cause())
		}
		c.locks.Release(e.in.Addr, c.ctx.ID, e.complete)
		if c.trc != nil {
			c.trc.LockReleased(c.id, c.ctx.ID, e.in.Addr, e.complete)
		}
		tx.Reset()
		c.ctx.csDepth--
		return true, 0
	}
	return true, 0
}

// trackRead feeds a performed load into the running transaction's read
// set (no-op outside an active speculation).
func (c *Core) trackRead(lineAddr uint64) {
	if tx := c.ctx.tx; tx != nil && tx.TrackRead(lineAddr) {
		c.htmAborted(tx, lineAddr)
	}
}

// trackWrite feeds a performed store into the running transaction's
// write set (no-op outside an active speculation).
func (c *Core) trackWrite(lineAddr uint64) {
	if tx := c.ctx.tx; tx != nil && tx.TrackWrite(lineAddr) {
		c.htmAborted(tx, lineAddr)
	}
}
