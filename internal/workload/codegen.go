// Package workload turns database-engine operations (internal/db) into the
// synthetic Alpha-like instruction streams that stand in for the paper's
// ATOM-derived Oracle traces.
//
// The central abstraction is a code-layout model: engine functions are
// Routines laid out at fixed PCs in a text segment whose total size is the
// instruction footprint (about 560KB for OLTP, which overwhelms the 128KB
// L1 I-cache but fits the 8MB L2 — the regime Section 4.1 studies). A
// routine executes mostly straight-line, so instruction misses form short
// sequential streams (the property the instruction stream buffer exploits),
// with data-dependent conditional branches mixed in at realistic density.
// Loads and stores take their addresses from the engine's own structures,
// and the register dependences between them model pointer-chasing lookups.
package workload

import (
	"math/rand/v2"

	"repro/internal/trace"
)

// SiteChoice derives a stable pseudo-random choice in [0, n) from a code
// site. Using the PC rather than an RNG keeps every routine's instruction
// sequence identical across executions (only addresses vary), so branch
// predictor and BTB sites are stationary, as for real compiled code.
func SiteChoice(pc uint64, n int) int {
	h := pc * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(n))
}

// CodeSpace allocates routine PCs within a text segment.
type CodeSpace struct {
	base     uint64
	next     uint64
	routines []*Routine
}

// NewCodeSpace starts a text segment at base.
func NewCodeSpace(base uint64) *CodeSpace {
	return &CodeSpace{base: base, next: base}
}

// Footprint returns the bytes of code allocated so far.
func (cs *CodeSpace) Footprint() uint64 { return cs.next - cs.base }

// Routine is one engine function: a PC range executed mostly straight-line.
type Routine struct {
	Name string
	Base uint64
	End  uint64
}

// NewRoutine allocates size bytes of text for a routine.
func (cs *CodeSpace) NewRoutine(name string, size int) *Routine {
	r := &Routine{Name: name, Base: cs.next, End: cs.next + uint64(size)}
	cs.next += uint64(size)
	cs.routines = append(cs.routines, r)
	return r
}

// Routines returns the allocated routines in layout (address) order.
func (cs *CodeSpace) Routines() []*Routine { return cs.routines }

// Resolve maps a PC back to the routine containing it. Routines are
// allocated at monotonically increasing addresses, so a binary search over
// Base suffices.
func (cs *CodeSpace) Resolve(pc uint64) (string, bool) {
	lo, hi := 0, len(cs.routines)
	for lo < hi {
		mid := (lo + hi) / 2
		if cs.routines[mid].Base <= pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return "", false
	}
	r := cs.routines[lo-1]
	if pc >= r.End {
		return "", false
	}
	return r.Name, true
}

// Emitter produces instructions with consistent PCs, register rotation,
// call/return bookkeeping, and automatic branch seasoning.
type Emitter struct {
	rng *rand.Rand

	out []trace.Instr
	pos int

	pc          uint64
	retStack    []uint64
	routine     *Routine
	routStack   []*Routine
	lastDest    uint8
	nextReg     uint8
	sinceBranch int

	// BranchEvery inserts a data-dependent conditional branch roughly every
	// N instructions (default 6, matching integer-code branch density).
	BranchEvery int

	// PredictableSeasoning makes all automatically inserted branches
	// strongly biased (loop-style code, e.g. the DSS scan); by default a
	// minority of sites are near-random, as in pointer-heavy OLTP code.
	PredictableSeasoning bool

	Emitted uint64
}

// NewEmitter returns an emitter seeded deterministically per process.
func NewEmitter(seed uint64) *Emitter {
	return &Emitter{
		rng:         rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15)),
		nextReg:     1,
		BranchEvery: 6,
	}
}

// Rand exposes the emitter's deterministic RNG for workload decisions.
func (e *Emitter) Rand() *rand.Rand { return e.rng }

// PC returns the current emission program counter (for site-stable
// decisions via SiteChoice).
func (e *Emitter) PC() uint64 { return e.pc }

// pop moves the next buffered instruction into in, reporting availability.
func (e *Emitter) pop(in *trace.Instr) bool {
	if e.pos >= len(e.out) {
		e.out = e.out[:0]
		e.pos = 0
		return false
	}
	*in = e.out[e.pos]
	e.pos++
	return true
}

// reg returns the next rotating scratch register.
func (e *Emitter) reg() uint8 {
	r := e.nextReg
	e.nextReg++
	if e.nextReg > 56 { // leave a few registers out of rotation
		e.nextReg = 1
	}
	return r
}

func (e *Emitter) push(in trace.Instr) {
	in.PC = e.pc
	e.out = append(e.out, in)
	e.Emitted++
}

// Call enters routine r: an OpCall instruction plus the PC switch.
func (e *Emitter) Call(r *Routine) {
	e.push(trace.Instr{Op: trace.OpCall, Target: r.Base})
	e.retStack = append(e.retStack, e.pc+4)
	e.routStack = append(e.routStack, e.routine)
	e.routine = r
	e.pc = r.Base
	e.sinceBranch = 0
}

// Ret leaves the current routine.
func (e *Emitter) Ret() {
	if len(e.retStack) == 0 {
		panic("workload: Ret without Call")
	}
	target := e.retStack[len(e.retStack)-1]
	e.retStack = e.retStack[:len(e.retStack)-1]
	e.push(trace.Instr{Op: trace.OpReturn, Target: target})
	e.pc = target
	e.routine = e.routStack[len(e.routStack)-1]
	e.routStack = e.routStack[:len(e.routStack)-1]
}

// InRoutine reports how many bytes remain before the routine's end.
func (e *Emitter) Remaining() uint64 {
	if e.routine == nil || e.pc >= e.routine.End {
		return 0
	}
	return e.routine.End - e.pc
}

// biasFor derives a stable per-site taken probability: most branch sites
// are highly predictable, a minority are data-dependent coin flips. The
// blend reproduces OLTP's ~11% conditional misprediction rate on the
// hybrid predictor.
func biasFor(pc uint64) float64 {
	h := pc * 0x2545F4914F6CDD1D >> 56
	switch {
	case h < 168: // ~66%: error checks etc., almost never taken
		return 0.02
	case h < 207: // ~15%: loop-like, almost always taken
		return 0.97
	case h < 237: // ~12%: biased data-dependent
		return 0.10
	default: // ~7%: poorly predictable data-dependent
		return 0.30
	}
}

// branch emits a conditional branch whose outcome follows the site's bias.
// Taken branches skip a short forward distance (the emitter continues at
// the target, so trace PCs stay consistent); the instruction stream stays
// mostly sequential, as the paper observes for OLTP code.
func (e *Emitter) branch() {
	bias := biasFor(e.pc)
	if e.PredictableSeasoning {
		bias = 0.03
	}
	taken := e.rng.Float64() < bias
	skip := uint64(8 + e.rng.IntN(4)*8)
	target := e.pc + 4 + skip
	e.push(trace.Instr{Op: trace.OpBranch, Src1: e.lastDest, Taken: taken, Target: target})
	if taken {
		e.pc = target
	} else {
		e.pc += 4
	}
	e.sinceBranch = 0
}

// step advances the PC after a non-branch instruction and seasons the
// stream with branches at the configured density.
func (e *Emitter) step() {
	e.pc += 4
	e.sinceBranch++
	if e.sinceBranch >= e.BranchEvery {
		e.branch()
	}
}

// ALU emits n integer operations. chain makes them serially dependent
// (pointer arithmetic, comparisons); otherwise they pair up independently,
// giving the ILP that multiple issue exploits.
func (e *Emitter) ALU(n int, chain bool) {
	for i := 0; i < n; i++ {
		d := e.reg()
		src := uint8(trace.NoReg)
		if chain || i%3 != 0 {
			src = e.lastDest
		}
		e.push(trace.Instr{Op: trace.OpIntALU, Src1: src, Dest: d})
		e.lastDest = d
		e.step()
	}
}

// FPALU emits n floating-point operations (DSS aggregation arithmetic).
func (e *Emitter) FPALU(n int, chain bool) {
	for i := 0; i < n; i++ {
		d := e.reg()
		src := uint8(trace.NoReg)
		if chain {
			src = e.lastDest
		}
		e.push(trace.Instr{Op: trace.OpFPALU, Src1: src, Dest: d})
		e.lastDest = d
		e.step()
	}
}

// Load emits a load of addr. If dep, its address depends on the previous
// result (pointer chase); the loaded value becomes the new dependence.
func (e *Emitter) Load(addr uint64, dep bool) uint8 {
	d := e.reg()
	src := uint8(trace.NoReg)
	if dep {
		src = e.lastDest
	}
	e.push(trace.Instr{Op: trace.OpLoad, Addr: addr, Src1: src, Dest: d})
	e.lastDest = d
	e.step()
	return d
}

// LoadChain emits serially dependent loads (hash-chain / B-tree walks).
func (e *Emitter) LoadChain(addrs []uint64) {
	for _, a := range addrs {
		e.Load(a, true)
	}
}

// Store emits a store of the last result to addr.
func (e *Emitter) Store(addr uint64) {
	e.push(trace.Instr{Op: trace.OpStore, Addr: addr, Src1: e.lastDest})
	e.step()
}

// LockAcquire emits a lock acquire on addr; acquire ordering is provided by
// the operation itself in the processor model.
func (e *Emitter) LockAcquire(addr uint64) {
	e.push(trace.Instr{Op: trace.OpLockAcquire, Addr: addr, Dest: e.reg()})
	e.pc += 4
	e.sinceBranch = 0
}

// LockRelease emits WMB + lock release, the Alpha idiom the paper models.
func (e *Emitter) LockRelease(addr uint64) {
	e.push(trace.Instr{Op: trace.OpWriteBar})
	e.pc += 4
	e.push(trace.Instr{Op: trace.OpLockRelease, Addr: addr, Src1: e.lastDest})
	e.pc += 4
	e.sinceBranch = 0
}

// LoopBack emits a taken backward branch to near the start of the current
// routine (a loop-closing branch: highly predictable, keeps tight loops
// like the DSS scan within a small instruction footprint).
func (e *Emitter) LoopBack() {
	target := e.routine.Base + 8
	e.push(trace.Instr{Op: trace.OpBranch, Src1: e.lastDest, Taken: true, Target: target})
	e.pc = target
	e.sinceBranch = 0
}

// CondBranch emits a conditional branch with an explicit outcome (used for
// predicate evaluation where the workload knows the data-derived result).
func (e *Emitter) CondBranch(taken bool) {
	skip := uint64(16)
	target := e.pc + 4 + skip
	e.push(trace.Instr{Op: trace.OpBranch, Src1: e.lastDest, Taken: taken, Target: target})
	if taken {
		e.pc = target
	} else {
		e.pc += 4
	}
	e.sinceBranch = 0
}

// MemBar emits a full barrier.
func (e *Emitter) MemBar() {
	e.push(trace.Instr{Op: trace.OpMemBar})
	e.pc += 4
}

// Syscall emits a blocking system call (context-switch hint) of lat cycles.
func (e *Emitter) Syscall(lat uint32) {
	e.push(trace.Instr{Op: trace.OpSyscall, Latency: lat})
	e.pc += 4
}

// Prefetch emits a software prefetch hint (Section 4.2). Exclusive
// requests ownership for an upcoming store.
func (e *Emitter) Prefetch(addr uint64, exclusive bool) {
	op := trace.OpPrefetch
	if exclusive {
		op = trace.OpPrefetchX
	}
	e.push(trace.Instr{Op: op, Addr: addr})
	e.step()
}

// Flush emits a software flush/write-through hint (Section 4.2).
func (e *Emitter) Flush(addr uint64) {
	e.push(trace.Instr{Op: trace.OpFlush, Addr: addr})
	e.step()
}

// Gen is a lazily generated instruction stream: a queue of steps (engine
// operations) refilled by the workload driver. It implements trace.Stream.
type Gen struct {
	E      *Emitter
	queue  []func(*Emitter)
	head   int // next step to run; queue[:head] are cleared
	refill func(*Gen) bool
	done   bool

	// Drawn counts successful Next calls. Checkpoint restore re-generates
	// a stream by drawing Drawn instructions from a freshly built
	// generator, which replays every RNG draw and engine interaction in
	// the identical order (see the workloads' RestoreWorkload).
	Drawn uint64

	// MaxBuffered is the most instructions one step has left in the
	// emitter's buffer: the generator's footprint high-water mark.
	MaxBuffered int
}

// NewGen wires an emitter to a refill function that enqueues the next batch
// of steps (e.g. one transaction) and returns false when the workload ends.
func NewGen(e *Emitter, refill func(*Gen) bool) *Gen {
	return &Gen{E: e, refill: refill}
}

// Enqueue appends a step to be expanded later.
func (g *Gen) Enqueue(step func(*Emitter)) { g.queue = append(g.queue, step) }

// Next implements trace.Stream.
func (g *Gen) Next(in *trace.Instr) bool {
	for !g.E.pop(in) {
		if g.head == len(g.queue) {
			g.queue, g.head = g.queue[:0], 0
			if g.done || !g.refill(g) || len(g.queue) == 0 {
				g.done = true
				return false
			}
		}
		// Clear the slot so an executed step is garbage at once.
		step := g.queue[g.head]
		g.queue[g.head] = nil
		g.head++
		step(g.E)
		g.MaxBuffered = max(g.MaxBuffered, len(g.E.out))
	}
	g.Drawn++
	return true
}
