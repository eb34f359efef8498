package cpu

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/htm"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Checkpoint DTOs for one processor and its process contexts. Static
// structure (config, memory hierarchy wiring, latch policy, predictor
// geometry) is rebuilt by New from the same configuration; Snapshot
// captures only the dynamic pipeline and statistics state. The trace
// stream attached to each context is NOT serialized — workloads rebuild
// their streams deterministically and the caller re-attaches them.

// ContextState is one process context. The elision transaction is
// carried inline when present.
type ContextState struct {
	ID           int
	Retired      uint64
	BlockedUntil uint64
	Finished     bool
	CSDepth      int
	HasTx        bool
	Tx           htm.TxState
}

// Snapshot captures a process context (minus its trace stream).
func (c *Context) Snapshot() ContextState {
	s := ContextState{
		ID:           c.ID,
		Retired:      c.Retired,
		BlockedUntil: c.BlockedUntil,
		Finished:     c.Finished,
		CSDepth:      c.csDepth,
	}
	if c.tx != nil {
		s.HasTx = true
		s.Tx = c.tx.Snapshot()
	}
	return s
}

// Restore refills a process context. htmCfg sizes the transaction
// context when one was captured (the core's HTMCfg).
func (c *Context) Restore(s ContextState, htmCfg htm.Config) {
	c.Retired = s.Retired
	c.BlockedUntil = s.BlockedUntil
	c.Finished = s.Finished
	c.csDepth = s.CSDepth
	if s.HasTx {
		c.tx = htm.New(htmCfg)
		c.tx.Restore(s.Tx)
	} else {
		c.tx = nil
	}
}

// HTMCfg exposes the core's transaction bounds so the caller can restore
// per-context transactions.
func (c *Core) HTMCfg() htm.Config { return c.htmCfg }

// ROBEntryState is one in-flight window entry (robEntry plus its
// sequence number).
type ROBEntryState struct {
	FetchDone uint64
	Prod1     uint64
	Prod2     uint64
	Complete  uint64
	AddrDone  uint64
	State     uint8
	IssuedMem bool
	Performed bool
	SpecLoad  bool
	Violated  bool
	Prefetch  bool
	Mispred   bool
	Waited    bool
	In        trace.Instr
	Seq       uint64
	LineAddr  uint64
	Class     uint8
	TLBMiss   bool
}

// FQEntryState mirrors fqEntry.
type FQEntryState struct {
	In        trace.Instr
	FetchDone uint64
	Mispred   bool
}

// WbufEntryState mirrors wbufEntry.
type WbufEntryState struct {
	Addr       uint64
	PC         uint64
	Done       uint64
	IsWMB      bool
	IsFlush    bool
	Issued     bool
	InCS       bool
	Release    bool
	FlushAfter bool
}

// CoreState is the dynamic state of a Core.
type CoreState struct {
	NowCycle uint64
	CtxID    int // installed process context, -1 when idle

	ROB        []ROBEntryState // in-flight window [headSeq, tailSeq), in order
	HeadSeq    uint64
	TailSeq    uint64
	Rename     [trace.MaxReg + 1]uint64
	MemInROB   int
	Waiting    int
	FenceCount int

	FetchQ      []FQEntryState // logical queue (head compacted to 0)
	CurLine     uint64
	LineValid   bool
	FetchReady  uint64
	BlockBranch uint64
	ResumeAt    uint64
	Unresolved  int
	PendingSys  bool
	PendingSysN uint32
	StreamEnded bool
	StallInstr  bool
	Poked       bool

	Wbuf []WbufEntryState // logical buffer (head compacted to 0)

	DbgLastPerform   uint64
	DbgLastLoadBind  uint64
	DbgLastStoreDone uint64

	Bk         stats.Breakdown
	Retired    uint64
	Rollbacks  uint64
	LockSpins  uint64
	LockTries  uint64
	LockWaits  uint64
	SpecLoads  uint64
	Violations uint64

	HTMBegins         uint64
	HTMCommits        uint64
	HTMConflictAborts uint64
	HTMCapacityAborts uint64
	HTMExplicitAborts uint64
	HTMFallbacks      uint64

	ROBOcc [5]uint64

	Pred bpred.PredictorState
}

// Snapshot captures the core's dynamic state.
func (c *Core) Snapshot() CoreState {
	s := CoreState{
		NowCycle:         c.nowCycle,
		CtxID:            -1,
		HeadSeq:          c.headSeq,
		TailSeq:          c.tailSeq,
		Rename:           c.rename,
		MemInROB:         c.memInROB,
		Waiting:          c.waiting,
		FenceCount:       c.fenceCount,
		CurLine:          c.curLine,
		LineValid:        c.lineValid,
		FetchReady:       c.fetchReady,
		BlockBranch:      c.blockBranch,
		ResumeAt:         c.resumeAt,
		Unresolved:       c.unresolved,
		PendingSys:       c.pendingSys,
		PendingSysN:      c.pendingSysNs,
		StreamEnded:      c.streamEnded,
		StallInstr:       c.stallInstr,
		Poked:            c.poked,
		DbgLastPerform:   c.dbgLastPerform,
		DbgLastLoadBind:  c.dbgLastLoadBind,
		DbgLastStoreDone: c.dbgLastStoreDone,
		Bk:               c.Bk,
		Retired:          c.Retired,
		Rollbacks:        c.Rollbacks,
		LockSpins:        c.LockSpins,
		LockTries:        c.LockTries,
		LockWaits:        c.LockWaits,
		SpecLoads:        c.SpecLoads,
		Violations:       c.Violations,

		HTMBegins:         c.HTMBegins,
		HTMCommits:        c.HTMCommits,
		HTMConflictAborts: c.HTMConflictAborts,
		HTMCapacityAborts: c.HTMCapacityAborts,
		HTMExplicitAborts: c.HTMExplicitAborts,
		HTMFallbacks:      c.HTMFallbacks,

		ROBOcc: c.ROBOcc,
		Pred:   c.pred.Snapshot(),
	}
	if c.ctx != nil {
		s.CtxID = c.ctx.ID
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := &c.rob[seq&c.robMask]
		f := e.flags
		s.ROB = append(s.ROB, ROBEntryState{
			FetchDone: e.fetchDone,
			Prod1:     e.prod1,
			Prod2:     e.prod2,
			Complete:  e.complete,
			AddrDone:  e.addrDone,
			State:     e.state,
			IssuedMem: f&fIssuedMem != 0,
			Performed: f&fPerformed != 0,
			SpecLoad:  f&fSpecLoad != 0,
			Violated:  f&fViolated != 0,
			Prefetch:  f&fPrefetch != 0,
			Mispred:   f&fMispred != 0,
			Waited:    f&fWaited != 0,
			In:        e.in,
			Seq:       seq,
			LineAddr:  e.lineAddr,
			Class:     uint8(e.class),
			TLBMiss:   f&fTLBMiss != 0,
		})
	}
	for i := c.fqHead; i < len(c.fetchQ); i++ {
		f := &c.fetchQ[i]
		s.FetchQ = append(s.FetchQ, FQEntryState{In: f.in, FetchDone: f.fetchDone, Mispred: f.mispred})
	}
	for i := c.wbHead; i < len(c.wbuf); i++ {
		w := &c.wbuf[i]
		s.Wbuf = append(s.Wbuf, WbufEntryState{
			Addr: w.addr, PC: w.pc, Done: w.done,
			IsWMB: w.isWMB, IsFlush: w.isFlush, Issued: w.issued,
			InCS: w.inCS, Release: w.release, FlushAfter: w.flushAfter,
		})
	}
	return s
}

// Restore refills the core from a snapshot taken under the same
// configuration. byID resolves the installed process context; contexts
// themselves must have been restored (and their streams re-attached)
// first.
func (c *Core) Restore(s CoreState, byID map[int]*Context) error {
	if n := s.TailSeq - s.HeadSeq; n != uint64(len(s.ROB)) || n > uint64(len(c.rob)) {
		return fmt.Errorf("cpu: core %d snapshot window [%d,%d) inconsistent with %d entries (cap %d)",
			c.id, s.HeadSeq, s.TailSeq, len(s.ROB), len(c.rob))
	}
	c.nowCycle = s.NowCycle
	if s.CtxID >= 0 {
		ctx, ok := byID[s.CtxID]
		if !ok {
			return fmt.Errorf("cpu: core %d snapshot references unknown context %d", c.id, s.CtxID)
		}
		c.ctx = ctx
	} else {
		c.ctx = nil
	}
	clear(c.rob)
	c.headSeq = s.HeadSeq
	c.tailSeq = s.TailSeq
	for k, es := range s.ROB {
		e := &c.rob[(s.HeadSeq+uint64(k))&c.robMask]
		e.in = es.In
		e.state = es.State
		if es.IssuedMem {
			e.flags |= fIssuedMem
		}
		if es.Performed {
			e.flags |= fPerformed
		}
		if es.SpecLoad {
			e.flags |= fSpecLoad
		}
		if es.Violated {
			e.flags |= fViolated
		}
		if es.Prefetch {
			e.flags |= fPrefetch
		}
		if es.Mispred {
			e.flags |= fMispred
		}
		if es.Waited {
			e.flags |= fWaited
		}
		if es.TLBMiss {
			e.flags |= fTLBMiss
		}
		e.fetchDone = es.FetchDone
		e.prod1 = es.Prod1
		e.prod2 = es.Prod2
		e.complete = es.Complete
		e.addrDone = es.AddrDone
		e.lineAddr = es.LineAddr
		e.class = memsys.Class(es.Class)
	}
	c.rename = s.Rename
	c.memInROB = s.MemInROB
	c.waiting = s.Waiting
	c.fenceCount = s.FenceCount
	c.rebuildSched(c.nowCycle) // derived state, not checkpointed

	c.fetchQ = c.fetchQ[:0]
	for _, f := range s.FetchQ {
		c.fetchQ = append(c.fetchQ, fqEntry{in: f.In, fetchDone: f.FetchDone, mispred: f.Mispred})
	}
	c.fqHead = 0
	c.curLine = s.CurLine
	c.lineValid = s.LineValid
	c.fetchReady = s.FetchReady
	c.blockBranch = s.BlockBranch
	c.resumeAt = s.ResumeAt
	c.unresolved = s.Unresolved
	c.pendingSys = s.PendingSys
	c.pendingSysNs = s.PendingSysN
	c.streamEnded = s.StreamEnded
	c.stallInstr = s.StallInstr
	c.poked = s.Poked
	c.inScratch = trace.Instr{}

	c.wbuf = c.wbuf[:0]
	for _, w := range s.Wbuf {
		c.wbuf = append(c.wbuf, wbufEntry{
			addr: w.Addr, pc: w.PC, done: w.Done,
			isWMB: w.IsWMB, isFlush: w.IsFlush, issued: w.Issued,
			inCS: w.InCS, release: w.Release, flushAfter: w.FlushAfter,
		})
	}
	c.wbHead = 0

	c.dbgLastPerform = s.DbgLastPerform
	c.dbgLastLoadBind = s.DbgLastLoadBind
	c.dbgLastStoreDone = s.DbgLastStoreDone

	c.Bk = s.Bk
	c.Retired = s.Retired
	c.Rollbacks = s.Rollbacks
	c.LockSpins = s.LockSpins
	c.LockTries = s.LockTries
	c.LockWaits = s.LockWaits
	c.SpecLoads = s.SpecLoads
	c.Violations = s.Violations
	c.HTMBegins = s.HTMBegins
	c.HTMCommits = s.HTMCommits
	c.HTMConflictAborts = s.HTMConflictAborts
	c.HTMCapacityAborts = s.HTMCapacityAborts
	c.HTMExplicitAborts = s.HTMExplicitAborts
	c.HTMFallbacks = s.HTMFallbacks
	c.ROBOcc = s.ROBOcc

	return c.pred.Restore(s.Pred)
}
