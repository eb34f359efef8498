package cpu

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/trace"
)

// Diagnostic accessors for machine-state snapshots (internal/diag). They
// expose pipeline occupancy and the oldest in-flight instruction so a
// watchdog trip or crash report can say what each core was waiting on.

// ROBLen returns the number of instructions in the window.
func (c *Core) ROBLen() int { return c.robLen() }

// FetchQueueLen returns the number of instructions in the fetch buffer.
func (c *Core) FetchQueueLen() int { return c.fqLen }

// WriteBufferLen returns the number of entries in the post-retirement
// write buffer.
func (c *Core) WriteBufferLen() int { return c.wbufLen() }

// HeadInstr describes the oldest unretired instruction — the one whose
// stall holds up the whole window. ok is false when the window is empty.
func (c *Core) HeadInstr() (op string, pc, addr uint64, ok bool) {
	if c.robLen() == 0 {
		return "", 0, 0, false
	}
	e := &c.rob[c.headSeq&c.robMask]
	return e.in.Op.String(), e.in.PC, e.in.Addr, true
}

// Memory-ordering checks (cfg.DebugChecks). Under SC every non-speculative
// memory operation must perform in program order; under PC stores perform
// FIFO and loads bind in order among loads. The pipeline observes each
// operation's perform point exactly once and in program order (that is what
// the issue/retire gates enforce), so monotone perform-time watermarks are
// an independent restatement of the model's ordering rules: if a gate is
// ever relaxed incorrectly, a watermark regresses and the run fails loudly.
// Violations panic; core.Machine recovers them into a diagnostic error.

// dbgCheckLoadBind runs when a non-speculative load binds its value at
// cycle now.
func (c *Core) dbgCheckLoadBind(now, pc uint64) {
	switch c.cfg.Consistency {
	case config.SC:
		if now < c.dbgLastPerform {
			panic(fmt.Sprintf("cpu%d: SC order violated: load pc=%#x bound at %d before an older op performed at %d",
				c.id, pc, now, c.dbgLastPerform))
		}
		c.dbgLastPerform = now
	case config.PC:
		if now < c.dbgLastLoadBind {
			panic(fmt.Sprintf("cpu%d: PC load order violated: load pc=%#x bound at %d before an older load at %d",
				c.id, pc, now, c.dbgLastLoadBind))
		}
		c.dbgLastLoadBind = now
	}
}

// dbgCheckStorePerform runs when an SC store at the head of the window
// issues, performing at done.
func (c *Core) dbgCheckStorePerform(done, pc uint64) {
	if done < c.dbgLastPerform {
		panic(fmt.Sprintf("cpu%d: SC order violated: store pc=%#x performs at %d before an older op performed at %d",
			c.id, pc, done, c.dbgLastPerform))
	}
	c.dbgLastPerform = done
}

// dbgCheckStoreFIFO runs when a PC write-buffer store issues at cycle now,
// performing at done: the previous store must already have performed.
func (c *Core) dbgCheckStoreFIFO(now, done, pc uint64) {
	if now < c.dbgLastStoreDone {
		panic(fmt.Sprintf("cpu%d: PC store FIFO violated: store pc=%#x issued at %d before the prior store performed at %d",
			c.id, pc, now, c.dbgLastStoreDone))
	}
	c.dbgLastStoreDone = done
}

// SpinningOn reports whether the head instruction is a lock acquire that
// has already found the lock held (the core is spinning), and on which
// lock address.
func (c *Core) SpinningOn() (addr uint64, ok bool) {
	if c.robLen() == 0 {
		return 0, false
	}
	e := &c.rob[c.headSeq&c.robMask]
	if e.in.Op == trace.OpLockAcquire && e.flags&fWaited != 0 {
		return e.in.Addr, true
	}
	return 0, false
}
