// Package cpu implements the processor model of the simulated machine: an
// aggressive out-of-order core with multiple issue, a reorder-buffer
// instruction window, non-blocking loads, speculative execution behind a
// hybrid branch predictor, a load/store queue and write buffer, and
// implementations of three memory consistency models (SC, PC, RC) in
// straightforward, hardware-prefetching, and speculative-load variants
// (Sections 2.4 and 3.4 of the paper). An in-order mode issues instructions
// strictly in program order, stalling at the first unavailable dependence.
//
// The core is trace-driven: mispredicted branches stall fetch until the
// branch resolves (wrong-path instructions are not simulated), exactly as
// in the paper's methodology. Stall time is attributed with the paper's
// retire-based convention: each cycle, retired/max-retire counts as busy
// and the remainder is charged to the first instruction that could not
// retire.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/htm"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracing"
)

// LockManager mediates the simulated lock values shared by all processors
// (the paper maintains lock memory locations in the simulated environment
// to model inter-process synchronization faithfully).
type LockManager interface {
	// TryAcquire attempts to take the lock at addr for process proc at
	// cycle now, returning false if it is held elsewhere.
	TryAcquire(addr uint64, proc int, now uint64) bool
	// Release frees the lock; it becomes acquirable at availableAt.
	Release(addr uint64, proc int, availableAt uint64)
}

// Context is one simulated server process. Pipeline state lives in the
// core; the pipeline drains before a context switch.
type Context struct {
	ID     int
	Stream trace.Stream

	Retired      uint64
	BlockedUntil uint64  // cycle the blocking system call completes
	Finished     bool    // trace exhausted and pipeline drained
	csDepth      int     // lock-acquire nesting (critical-section tracking)
	tx           *htm.Tx // per-process elision transaction (LatchPolicy=htm)
}

// InCriticalSection reports whether the process currently holds a lock.
func (c *Context) InCriticalSection() bool { return c.csDepth > 0 }

const (
	stWaiting uint8 = iota // in window, not yet executing
	stExec                 // executing or memory outstanding; complete valid
	stFetched              // in the fetch queue, past the window's tail
)

// noProd marks "no producer" in the rename table (sequence numbers start
// at 1).
const noProd uint64 = 0

const farFuture = ^uint64(0) >> 2

// Reorder-buffer entry flags, packed one byte per entry so the coherence
// hook and the issue stage test them with a single load.
const (
	fIssuedMem uint8 = 1 << iota
	fPerformed
	fSpecLoad
	fViolated
	fPrefetch // consistency prefetch already issued
	fMispred
	fWaited // lock acquire already counted as contended
	fTLBMiss
)

// robEntry is one in-flight instruction, from fetch to retirement. Its
// sequence number is not stored: it is the loop variable everywhere one is
// needed.
type robEntry struct {
	in        trace.Instr // decoded instruction (written once, at fetch)
	state     uint8
	flags     uint8
	class     memsys.Class
	cls       uint8 // ready-set class of the next step (stepClass), kept with addrDone
	fetchDone uint64
	prod1     uint64 // producer sequence numbers (noProd = ready)
	prod2     uint64
	complete  uint64
	addrDone  uint64 // address-generation completion (0 = not yet)
	lineAddr  uint64

	// Issue scheduler links (issue.go).
	at       uint64 // cycle of the entry's key in later (0 = none)
	wake     uint64 // first consumer waiting for this entry to issue (0 = none)
	wakeNext uint64 // next consumer on the same wake list
}

type wbufEntry struct {
	addr       uint64
	pc         uint64
	done       uint64
	isWMB      bool
	isFlush    bool // software flush hint: executes once prior stores perform
	issued     bool
	inCS       bool
	release    bool // lock-release store: frees the lock when performed
	flushAfter bool // hints policy: flush the latch line after the release
}

// Core is one simulated processor.
type Core struct {
	cfg    config.Config
	id     int
	mem    *memsys.Hierarchy
	pred   *bpred.Predictor
	locks  LockManager
	prober LockProber // optional view of locks for NextEvent (nil = none)

	latch         latchPolicy
	latchMirrored bool       // lock ops have exact NextEvent mirrors (plain/hints)
	viewer        LockViewer // optional non-mutating availability view (nil = none)
	htmCfg        htm.Config
	nowCycle      uint64 // current cycle, for async-hook event timestamps
	onAbort       func() // called before a line invalidation aborts the running transaction

	ctx *Context
	trc *tracing.Tracer // nil = tracing disabled (pure-observer event hooks)

	// The reorder buffer is a ring of entries, index = seq & robMask. The
	// window is [headSeq, tailSeq); the fetch queue is the fqLen slots that
	// follow it, so fetch decodes each instruction into the slot it will
	// occupy in the window.
	rob        []robEntry
	robMask    uint64 // ring capacity - 1; capacity rounded to a power of two
	ringBits   uint   // log2 of the ring capacity
	headSeq    uint64 // oldest in-flight sequence number
	tailSeq    uint64 // next sequence number to allocate
	rename     [trace.MaxReg + 1]uint64
	memInROB   int
	waiting    int // in-window entries not yet executing
	fenceCount int // unretired MB/lock-acquire entries in the window

	// Issue scheduler (issue.go), derived from the window entries.
	sw       []schedWord // ready, soon and program-order bit sets per ring word
	soonAt   uint64      // cycle the soon set's entries become ready
	soonN    int         // entries in the soon set
	soonW    uint64      // words that may hold soon bits: bit w%64 stands for word w
	later    []uint64    // other timed entries: cycle<<ringBits | ring slot
	laterMin uint64      // at or below every live key in later

	fqLen        int // instructions in the fetch queue (slots from tailSeq on)
	curLine      uint64
	lineShift    uint // log2 of the L1I line size
	lineValid    bool
	fetchReady   uint64 // icache stall: no fetch before this cycle
	blockBranch  uint64 // seq of unresolved mispredicted branch (0 = none)
	resumeAt     uint64 // fetch resumes at this cycle after a redirect
	unresolved   int    // speculated (in-flight, predicted) branches
	pendingSys   bool
	pendingSysNs uint32
	streamEnded  bool
	stallInstr   bool // last fetch stall was the icache/iTLB
	poked        bool // async wake: a line invalidation marked a violation

	wbuf       []wbufEntry
	wbHead     int // index of the oldest buffered store (pop without realloc)
	wbUnissued int // buffered stores not yet issued to memory

	// Debug-mode (cfg.DebugChecks) memory-ordering watermarks: perform-time
	// stamps that must be monotone under the consistency model's rules.
	dbgLastPerform   uint64 // SC: last perform time of any memory op
	dbgLastLoadBind  uint64 // PC: last cycle a load bound its value
	dbgLastStoreDone uint64 // PC: perform time of the last buffered store
	// checkSched's per-ring-slot scratch, allocated once when checks are on.
	dbgOnWake  []int  // wake-list memberships
	dbgInLater []bool // a live key at or above laterMin

	// Statistics.
	Bk         stats.Breakdown
	Retired    uint64
	Rollbacks  uint64
	LockSpins  uint64 // cycles spent spinning
	LockTries  uint64
	LockWaits  uint64 // acquires that found the lock held
	SpecLoads  uint64
	Violations uint64
	// HTM elision lifecycle counters (LatchPolicy=htm; zero otherwise).
	HTMBegins         uint64
	HTMCommits        uint64
	HTMConflictAborts uint64
	HTMCapacityAborts uint64
	HTMExplicitAborts uint64
	HTMFallbacks      uint64
	// ROBOcc is the instruction-window occupancy histogram, in cycles
	// with a context scheduled: bucket 0 is an empty window, buckets 1-4
	// the occupied quartiles. Telemetry samples interval deltas of it.
	ROBOcc [5]uint64
}

// New builds a core for node id using hierarchy mem and lock manager locks.
func New(cfg config.Config, id int, mem *memsys.Hierarchy, locks LockManager) *Core {
	if cfg.InOrder {
		// An in-order pipeline has no reorder buffer: the "window" is a
		// short issue queue, and fetch is only lightly decoupled from
		// execute. (The out-of-order core's ability to keep fetching and
		// overlapping instruction misses during stalls is one of the
		// paper's observed advantages.)
		if cfg.WindowSize > 2*cfg.IssueWidth+8 {
			cfg.WindowSize = 2*cfg.IssueWidth + 8
		}
		if cfg.FetchBufferEntries > 2*cfg.IssueWidth {
			cfg.FetchBufferEntries = 2 * cfg.IssueWidth
		}
	}
	c := &Core{
		cfg: cfg,
		id:  id,
		mem: mem,
		pred: bpred.New(bpred.Config{
			PAEntries:   cfg.BPredPAEntries,
			HistoryBits: cfg.BPredHistoryBits,
			BTBEntries:  cfg.BTBEntries,
			BTBAssoc:    cfg.BTBAssoc,
			RASEntries:  cfg.RASEntries,
			Perfect:     cfg.PerfectBPred,
		}),
		locks: locks,
	}
	// The ring holds the window and the fetch queue behind it, and is
	// indexed by sequence number modulo its capacity on every pipeline-stage
	// touch; rounding the backing array up to a power of two turns that
	// modulo into a mask. Occupancy is still bounded by cfg.WindowSize at
	// dispatch and by cfg.FetchBufferEntries at fetch.
	robCap := 1 << bits.Len(uint(cfg.WindowSize+cfg.FetchBufferEntries-1))
	c.rob = make([]robEntry, robCap)
	c.robMask = uint64(robCap - 1)
	c.ringBits = uint(bits.TrailingZeros(uint(robCap)))
	c.sw = make([]schedWord, (robCap+63)/64)
	if cfg.DebugChecks {
		c.dbgOnWake = make([]int, robCap)
		c.dbgInLater = make([]bool, robCap)
	}
	c.laterMin = EventNever
	c.lineShift = mem.L1I().LineShift()
	c.headSeq, c.tailSeq = 1, 1
	if p, ok := locks.(LockProber); ok {
		c.prober = p
	}
	if v, ok := locks.(LockViewer); ok {
		c.viewer = v
	}
	c.latch = newLatchPolicy(cfg)
	c.latchMirrored = cfg.LatchPolicy != config.LatchHTM
	if cfg.LatchPolicy == config.LatchHTM {
		c.htmCfg = htm.Config{
			ReadSetLines:  cfg.HTMReadSetLines(),
			WriteSetLines: cfg.HTMWriteSetLines(),
			MaxRetries:    cfg.HTM.MaxRetries,
			BackoffCycles: cfg.HTM.BackoffCycles,
		}
	}
	mem.SetInvalidationHook(c.onInvalidation)
	return c
}

// SetTracer attaches (or with nil detaches) the event tracer. The tracer
// is a pure observer: attaching it does not change simulated timing.
func (c *Core) SetTracer(t *tracing.Tracer) { c.trc = t }

// Predictor exposes the branch predictor for reporting.
func (c *Core) Predictor() *bpred.Predictor { return c.pred }

// Context returns the running process (nil when idle).
func (c *Core) Context() *Context { return c.ctx }

func (c *Core) robLen() int { return int(c.tailSeq - c.headSeq) }

func (c *Core) wbufLen() int { return len(c.wbuf) - c.wbHead }

// Empty reports whether the pipeline has fully drained.
func (c *Core) Empty() bool {
	return c.robLen() == 0 && c.fqLen == 0 && c.wbufLen() == 0
}

// NeedsSwitch reports that the running process hit a blocking system call
// (or finished its trace) and the pipeline has drained; the scheduler
// should switch.
func (c *Core) NeedsSwitch() bool {
	return c.ctx != nil && c.Empty() && (c.pendingSys || c.streamEnded)
}

// TakeContext removes the running process for a context switch, applying
// the pending blocking-call latency. The pipeline must be empty.
func (c *Core) TakeContext(now uint64) *Context {
	if !c.Empty() {
		panic("cpu: context switch with non-empty pipeline")
	}
	ctx := c.ctx
	// Descheduling a speculating process aborts its transaction (the
	// context switch spills state the hardware cannot keep watching).
	if ctx != nil && ctx.tx != nil && ctx.tx.AbortExplicit() {
		c.htmAborted(ctx.tx, 0)
	}
	c.ctx = nil
	if ctx != nil {
		if c.pendingSys {
			ctx.BlockedUntil = now + uint64(c.pendingSysNs)
		}
		if c.streamEnded {
			ctx.Finished = true
		}
	}
	c.pendingSys = false
	c.pendingSysNs = 0
	c.streamEnded = false
	return ctx
}

// SwitchTo installs a process on the core. TLBs are flushed (separate
// address-space identifiers are not modelled, as in the traced system's
// process-per-server design).
func (c *Core) SwitchTo(ctx *Context) {
	if c.ctx != nil {
		panic("cpu: SwitchTo with a process still installed")
	}
	c.ctx = ctx
	c.lineValid = false
	c.fqLen = 0
	c.fetchReady = 0
	c.resumeAt = 0
	c.blockBranch = 0
	c.unresolved = 0
	c.rebuildSched(c.nowCycle)
	c.rename = [trace.MaxReg + 1]uint64{}
	c.mem.FlushTLBs()
}

// onInvalidation is the coherence callback used to detect speculative-load
// ordering violations: any outstanding speculative load whose line is
// invalidated or replaced must be squashed and re-executed (Section 3.4).
// Under LatchPolicy=htm it additionally feeds the running hardware
// transaction's conflict detection: a coherence invalidation hitting the
// read/write set is a conflict abort, a local eviction a capacity abort.
func (c *Core) onInvalidation(lineAddr uint64, eviction bool) {
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := &c.rob[seq&c.robMask]
		if e.flags&(fSpecLoad|fViolated) == fSpecLoad &&
			e.state == stExec && e.lineAddr == lineAddr {
			e.flags |= fViolated
			// Invalidate any cached NextEvent bound: the violation makes the
			// rollback (and everything after it) due earlier than predicted.
			c.poked = true
		}
	}
	if c.ctx != nil && c.ctx.tx != nil && c.ctx.tx.OnInvalidation(lineAddr, eviction) {
		if c.onAbort != nil {
			c.onAbort()
		}
		c.htmAborted(c.ctx.tx, lineAddr)
		c.poked = true
	}
}

// SetAbortHook installs f, called when a line invalidation is about to
// abort this core's hardware transaction, before the abort touches the
// core's counters, nowCycle or the tracer. core.Run uses it to bring a
// lazily fast-forwarded core up to date first.
func (c *Core) SetAbortHook(f func()) { c.onAbort = f }

// PipeStamp fingerprints the pipeline's front end: the dispatch tail, the
// fetch-queue length and the count of window entries not yet executing.
// Across a tick that retires nothing, a changed stamp means fetch,
// dispatch or issue acted (or a rollback squashed), so the core is busy
// and core.Run skips asking it for a NextEvent bound.
func (c *Core) PipeStamp() uint64 {
	return c.tailSeq<<32 ^ uint64(c.fqLen)<<16 ^ uint64(c.waiting)
}

// TakePoked reports and clears the asynchronous-wake flag: another core's
// store invalidated a line under one of this core's speculative loads since
// the last call, which voids any previously returned NextEvent bound.
func (c *Core) TakePoked() bool {
	p := c.poked
	c.poked = false
	return p
}

// Tick advances the core by one cycle.
func (c *Core) Tick(now uint64) {
	if c.ctx == nil {
		return
	}
	c.nowCycle = now
	if n := c.robLen(); n == 0 {
		c.ROBOcc[0]++
	} else if b := (4*n + c.cfg.WindowSize - 1) / c.cfg.WindowSize; b > 4 {
		c.ROBOcc[4]++
	} else {
		c.ROBOcc[b]++
	}
	c.drainWbuf(now)
	c.retireStage(now)
	c.issueStage(now)
	c.dispatchStage(now)
	c.fetchStage(now)
	if c.cfg.DebugChecks {
		c.checkSched(now)
	}
}

// String summarizes the core state (debugging aid).
func (c *Core) String() string {
	return fmt.Sprintf("core%d rob=%d fq=%d wbuf=%d retired=%d",
		c.id, c.robLen(), c.fqLen, c.wbufLen(), c.Retired)
}
