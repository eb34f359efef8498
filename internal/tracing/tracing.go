// Package tracing is the cycle-resolved structured event tracer: a pure
// observer wired into the processor pipeline and the memory system that
// records typed span events — retire-stall spans by CPI category, full
// L1/L2 data-miss lifecycles (issue, MSHR allocate, directory transaction,
// mesh hops, cache-to-cache or memory service, fill), lock/latch
// acquire–contend–release chains, and writebacks — each tagged with node,
// PC, engine operation (resolved through the workload's code layout), and
// block address.
//
// The tracer answers the attribution questions of Sections 5–6 of the
// paper: *which* instructions, engine operations and shared blocks the
// stall time goes to. Three aggregators consume every event (before any
// sampling) and reproduce the paper's analyses as reports: a per-PC /
// per-operation stall-attribution profile, a migratory-sharing detector
// classifying blocks by read-modify-write handoff patterns across nodes,
// and a per-miss latency histogram split by service class.
//
// Observer guarantees: with a nil *Tracer every hook site is a single
// pointer check (benchmark-asserted ≈ zero cost); with a tracer attached
// the raw stream is bounded by a ring buffer plus a per-kind sampling
// rate, and nothing the tracer does feeds back into simulated state, so
// runs with and without tracing are cycle-identical.
package tracing

import (
	"fmt"

	"repro/internal/htm"
	"repro/internal/stats"
)

// Kind is the event type.
type Kind uint8

const (
	// KindStall is a coalesced retire-stall span: consecutive cycles in
	// which retirement stalled at the same PC for the same category.
	KindStall Kind = iota
	// KindMiss is one data-miss lifecycle through the L1D MSHRs (and,
	// beyond the L2, the directory protocol).
	KindMiss
	// KindLock is a lock/latch acquisition, spanning first attempt to
	// the completion of the winning read-modify-write.
	KindLock
	// KindUnlock is the matching release (instant, linked to the
	// acquisition).
	KindUnlock
	// KindWriteback is a dirty L2 victim written back to its home.
	KindWriteback
	// KindHTM is a hardware-transactional latch-elision lifecycle event:
	// begin/commit/abort/fallback, with abort-cause detail.
	KindHTM

	numKinds
)

var kindNames = [...]string{"stall", "miss", "lock", "unlock", "writeback", "htm"}

// HTMOp is the elision lifecycle step a KindHTM event records.
type HTMOp uint8

const (
	// HTMOpBegin: speculation on an elided latch started.
	HTMOpBegin HTMOp = iota
	// HTMOpCommit: the elided critical section committed (span from begin
	// to commit — the cycles the latch was never taken).
	HTMOpCommit
	// HTMOpAbort: the transaction aborted; Cause and Conflict carry the
	// classified cause and the line that triggered it.
	HTMOpAbort
	// HTMOpFallback: retries exhausted; the real latch was acquired.
	HTMOpFallback

	numHTMOps
)

var htmOpNames = [...]string{"begin", "commit", "abort", "fallback"}

func (o HTMOp) String() string {
	if int(o) < len(htmOpNames) {
		return htmOpNames[o]
	}
	return fmt.Sprintf("HTMOp(%d)", int(o))
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Class mirrors the memory system's service classes (internal/memsys).
// The values coincide so the memory system can hand its class through a
// plain uint8 without importing this package's consumers.
type Class uint8

const (
	// ClassL1 is a first-level hit (only appears for merged accesses).
	ClassL1 Class = iota
	// ClassL2 is an L2 hit.
	ClassL2
	// ClassLocal was serviced by local memory.
	ClassLocal
	// ClassRemote was serviced by remote memory.
	ClassRemote
	// ClassRemoteDirty was serviced cache-to-cache (a dirty miss).
	ClassRemoteDirty

	// NumClasses is the number of service classes.
	NumClasses
)

var classNames = [...]string{"L1", "L2", "local", "remote", "dirty"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass is the inverse of Class.String.
func ParseClass(s string) (Class, bool) {
	for i, n := range classNames {
		if n == s {
			return Class(i), true
		}
	}
	return 0, false
}

// Event is one recorded span or instant. Fields are populated per kind;
// unused fields are zero. Start/End are simulated cycles (End == Start
// for instants).
type Event struct {
	ID   uint64 // unique, assigned in record order (stable under sampling)
	Link uint64 // causal parent: lock handoff chain, unlock -> lock (0 = none)
	Kind Kind

	CPU  int16 // requesting processor / node
	Home int16 // home directory node (misses that reached the directory)
	Proc int32 // server process (context) id, -1 when unknown

	PC   uint64 // instruction address charged or issuing
	Addr uint64 // lock address (locks) or physical line address (misses)

	Start uint64
	End   uint64

	// Stall spans.
	Cat    stats.Category
	Cycles float64 // accumulated retire-slot fractions charged in the span

	// Misses.
	Class     Class
	Write     bool
	InCS      bool // issued inside a critical section
	Migratory bool // protocol-flagged migratory transfer
	TLBMiss   bool
	MSHRAt    uint64 // L1D MSHR allocation
	DirAt     uint64 // request accepted at the home directory
	SrcAt     uint64 // data produced by the source (owner cache / memory bank)
	SrcOwner  int16  // owning node for cache-to-cache service (-1 = memory)
	Hops      int16  // mesh hops requester -> home
	Retries   int16  // directory NACK retries before acceptance
	Sharers   int16  // sharer count at the directory when the request arrived
	ReqQueue  uint64 // mesh queueing cycles suffered by the request leg

	// Locks.
	Wait uint64 // cycles between the first attempt and the acquisition

	// HTM elision (KindHTM); Addr is the elided latch address.
	HTMOp    HTMOp
	Cause    htm.AbortCause // abort cause (abort and fallback events)
	Conflict uint64         // conflicting / evicted line (abort events)
}

// Options configures a Tracer.
type Options struct {
	// BufferCap bounds the raw event ring (events); once full the oldest
	// events are overwritten. 0 means DefaultBufferCap.
	BufferCap int
	// SampleEvery keeps every Nth raw event of each kind in the ring
	// (aggregators always see every event). 0 or 1 keeps everything.
	SampleEvery uint64
}

// DefaultBufferCap is the default ring capacity.
const DefaultBufferCap = 1 << 18

type stallSpan struct {
	active bool
	pc     uint64
	cat    stats.Category
	start  uint64
	last   uint64
	cycles float64
	proc   int32
}

type lockPend struct {
	active bool
	addr   uint64
	pc     uint64
	start  uint64
	proc   int32
}

// Tracer records events. Not safe for concurrent use; the simulator is
// single-threaded per run. A nil *Tracer is the disabled state: every
// hook site guards with a nil check and does nothing else.
type Tracer struct {
	opts     Options
	resolver func(pc uint64) (string, bool)
	meta     map[string]any

	ring        []Event
	head        int // index of the oldest event once the ring has wrapped
	wrapped     bool
	nextID      uint64
	seen        [numKinds]uint64
	kept        uint64
	sampledOut  uint64
	overwritten uint64

	an *Analysis

	stalls  []stallSpan
	locks   []lockPend
	lastAcq map[uint64]uint64 // lock addr -> acquire event id
	lastRel map[uint64]uint64 // lock addr -> release event id

	miss       Event
	missActive bool
}

// New builds a tracer.
func New(opts Options) *Tracer {
	if opts.BufferCap <= 0 {
		opts.BufferCap = DefaultBufferCap
	}
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 1
	}
	return &Tracer{
		opts:    opts,
		ring:    make([]Event, 0, opts.BufferCap),
		an:      NewAnalysis(),
		lastAcq: make(map[uint64]uint64),
		lastRel: make(map[uint64]uint64),
	}
}

// SetResolver installs the PC -> engine-operation resolver (the
// workload's code layout). Used when rendering reports and exports.
func (t *Tracer) SetResolver(f func(pc uint64) (string, bool)) { t.resolver = f }

// SetMeta attaches a key to the exported trace's otherData (e.g. the
// simulator's own CPI breakdown, so traceview can reconcile offline).
func (t *Tracer) SetMeta(key string, value any) {
	if t.meta == nil {
		t.meta = make(map[string]any)
	}
	t.meta[key] = value
}

// Resolve maps a PC to its engine operation name ("" when unknown).
func (t *Tracer) Resolve(pc uint64) string {
	if t.resolver != nil {
		if name, ok := t.resolver(pc); ok {
			return name
		}
	}
	return ""
}

// Start marks the beginning of the measured window.
func (t *Tracer) Start(now uint64) { t.an.StartCycle = now }

// Reset discards everything recorded so far (the warm-up statistics
// reset): the raw ring, the aggregators, and any open spans. The
// resolver and options are kept.
func (t *Tracer) Reset(now uint64) {
	t.ring = t.ring[:0]
	t.head, t.wrapped = 0, false
	t.seen = [numKinds]uint64{}
	t.kept, t.sampledOut, t.overwritten = 0, 0, 0
	t.an = NewAnalysis()
	t.an.StartCycle = now
	for i := range t.stalls {
		t.stalls[i] = stallSpan{}
	}
	for i := range t.locks {
		t.locks[i] = lockPend{}
	}
	t.lastAcq = make(map[uint64]uint64)
	t.lastRel = make(map[uint64]uint64)
	t.missActive = false
}

// Finish closes open spans and stamps the end of the measured window.
// Safe to call more than once.
func (t *Tracer) Finish(now uint64) {
	for i := range t.stalls {
		if t.stalls[i].active {
			t.emitStall(&t.stalls[i])
			t.stalls[i] = stallSpan{}
		}
	}
	t.an.closeTenures()
	t.an.EndCycle = now
}

// Analysis returns the aggregate view (exact: fed by every event before
// sampling or ring overwrite).
func (t *Tracer) Analysis() *Analysis { return t.an }

// Events returns the retained raw events in chronological record order.
func (t *Tracer) Events() []Event {
	if !t.wrapped {
		return append([]Event(nil), t.ring...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// Stats reports retention: events kept in the ring, dropped by sampling,
// and overwritten after the ring wrapped.
func (t *Tracer) Stats() (kept, sampledOut, overwritten uint64) {
	return t.kept - t.overwritten, t.sampledOut, t.overwritten
}

// commit assigns an id and applies sampling + the ring bound. Aggregators
// are fed by the callers before commit, so they always see every event.
func (t *Tracer) commit(ev Event) uint64 {
	t.nextID++
	ev.ID = t.nextID
	t.an.Recorded[ev.Kind]++
	n := t.seen[ev.Kind]
	t.seen[ev.Kind]++
	if n%t.opts.SampleEvery != 0 {
		t.sampledOut++
		return ev.ID
	}
	t.kept++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
		return ev.ID
	}
	t.ring[t.head] = ev
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	t.wrapped = true
	t.overwritten++
	return ev.ID
}

func (t *Tracer) cpuSlot(cpu int) {
	for len(t.stalls) <= cpu {
		t.stalls = append(t.stalls, stallSpan{})
		t.locks = append(t.locks, lockPend{})
	}
}

// ------------------------------------------------------- pipeline hooks --

// RetireSlot charges one retired instruction's slot fraction as busy time
// at its PC (profile only; busy runs are not span events).
func (t *Tracer) RetireSlot(cpu int, pc uint64, frac float64) {
	t.an.site(pc).ByCat[stats.Busy] += frac
}

// StallSlot charges the stalled fraction of one retire cycle to (pc,
// cat), extending or opening the CPU's stall span. A gap (an interleaved
// fully-busy or idle cycle) or a change of site closes the open span.
func (t *Tracer) StallSlot(cpu, proc int, pc uint64, cat stats.Category, frac float64, now uint64) {
	t.cpuSlot(cpu)
	t.an.site(pc).ByCat[cat] += frac
	sp := &t.stalls[cpu]
	if sp.active && sp.pc == pc && sp.cat == cat && now <= sp.last+1 {
		sp.cycles += frac
		sp.last = now
		return
	}
	if sp.active {
		t.emitStall(sp)
	}
	*sp = stallSpan{active: true, pc: pc, cat: cat, start: now, last: now, cycles: frac, proc: int32(proc)}
}

// StallRun charges frac at (pc, cat) for every cycle of the steady span
// [from, to] (inclusive), bit-identically to calling StallSlot once per
// cycle. core.Run uses it to bulk-apply fast-forwarded spans; the profile
// accumulation and span coalescing use stats.AddRepeat so the resulting
// float64s match the per-cycle loop exactly.
func (t *Tracer) StallRun(cpu, proc int, pc uint64, cat stats.Category, frac float64, from, to uint64) {
	t.cpuSlot(cpu)
	n := to - from + 1
	stats.AddRepeat(&t.an.site(pc).ByCat[cat], frac, n)
	sp := &t.stalls[cpu]
	if sp.active && sp.pc == pc && sp.cat == cat && from <= sp.last+1 {
		stats.AddRepeat(&sp.cycles, frac, n)
		sp.last = to
		return
	}
	if sp.active {
		t.emitStall(sp)
	}
	*sp = stallSpan{active: true, pc: pc, cat: cat, start: from, last: to, proc: int32(proc)}
	stats.AddRepeat(&sp.cycles, frac, n)
}

func (t *Tracer) emitStall(sp *stallSpan) {
	// The cpu index is recoverable from the slice position, but spans are
	// emitted from both StallSlot and Finish; carry it explicitly.
	cpu := int16(0)
	for i := range t.stalls {
		if &t.stalls[i] == sp {
			cpu = int16(i)
			break
		}
	}
	t.commit(Event{
		Kind: KindStall, CPU: cpu, Proc: sp.proc, PC: sp.pc,
		Cat: sp.cat, Start: sp.start, End: sp.last + 1, Cycles: sp.cycles,
	})
}

// LockSpin notes a failed acquisition attempt, opening the contention
// window on the first one.
func (t *Tracer) LockSpin(cpu, proc int, pc, addr uint64, now uint64) {
	t.cpuSlot(cpu)
	lp := &t.locks[cpu]
	if lp.active && lp.addr == addr {
		return
	}
	*lp = lockPend{active: true, addr: addr, pc: pc, start: now, proc: int32(proc)}
}

// LockAcquired records a successful acquisition: the span runs from the
// first attempt to the completion of the winning read-modify-write, and
// links to the previous release of the same lock (the handoff chain that
// makes latches migratory).
func (t *Tracer) LockAcquired(cpu, proc int, pc, addr uint64, now, done uint64) {
	t.cpuSlot(cpu)
	start, wait := now, uint64(0)
	lp := &t.locks[cpu]
	if lp.active && lp.addr == addr {
		start = lp.start
		wait = now - lp.start
	}
	*lp = lockPend{}
	id := t.commit(Event{
		Kind: KindLock, CPU: int16(cpu), Proc: int32(proc), PC: pc, Addr: addr,
		Start: start, End: done, Wait: wait, Link: t.lastRel[addr], InCS: true,
	})
	t.lastAcq[addr] = id
}

// LockReleased records the release (instant), linked to the acquisition.
func (t *Tracer) LockReleased(cpu, proc int, addr, now uint64) {
	t.commit(Event{
		Kind: KindUnlock, CPU: int16(cpu), Proc: int32(proc), Addr: addr,
		Start: now, End: now, Link: t.lastAcq[addr], InCS: true,
	})
	t.lastRel[addr] = t.nextID
}

// ------------------------------------------------------------- HTM hooks --

// HTMBegin records the start of speculation on an elided latch (instant).
func (t *Tracer) HTMBegin(cpu, proc int, pc, latch, now uint64) {
	ev := Event{
		Kind: KindHTM, HTMOp: HTMOpBegin, CPU: int16(cpu), Proc: int32(proc),
		PC: pc, Addr: latch, Start: now, End: now,
	}
	t.an.addHTM(&ev)
	t.commit(ev)
}

// HTMCommit records a committed elision as a span from begin to commit:
// the critical section that executed without ever taking the latch.
func (t *Tracer) HTMCommit(cpu, proc int, pc, latch, begin, now uint64) {
	ev := Event{
		Kind: KindHTM, HTMOp: HTMOpCommit, CPU: int16(cpu), Proc: int32(proc),
		PC: pc, Addr: latch, Start: begin, End: now, InCS: true,
	}
	t.an.addHTM(&ev)
	t.commit(ev)
}

// HTMAbort records an abort with its classified cause and the line whose
// invalidation/eviction (or overflow) triggered it (instant).
func (t *Tracer) HTMAbort(cpu, proc int, latch uint64, cause htm.AbortCause, conflict, now uint64) {
	ev := Event{
		Kind: KindHTM, HTMOp: HTMOpAbort, CPU: int16(cpu), Proc: int32(proc),
		Addr: latch, Cause: cause, Conflict: conflict, Start: now, End: now,
	}
	t.an.addHTM(&ev)
	t.commit(ev)
}

// HTMFallback records giving up on speculation: the real latch was
// acquired (instant, tagged with the abort cause that forced it).
func (t *Tracer) HTMFallback(cpu, proc int, pc, latch uint64, cause htm.AbortCause, now uint64) {
	ev := Event{
		Kind: KindHTM, HTMOp: HTMOpFallback, CPU: int16(cpu), Proc: int32(proc),
		PC: pc, Addr: latch, Cause: cause, Start: now, End: now,
	}
	t.an.addHTM(&ev)
	t.commit(ev)
}

// --------------------------------------------------- memory-system hooks --

// BeginMiss opens a data-miss lifecycle on node. The memory system fills
// the phases in before EndMiss commits it; the scratch depth is one
// because accesses are resolved eagerly and never nest.
func (t *Tracer) BeginMiss(node int, pc uint64, now uint64, write, inCS bool) {
	t.miss = Event{
		Kind: KindMiss, CPU: int16(node), Home: -1, Proc: -1, PC: pc,
		Start: now, Write: write, InCS: inCS, SrcOwner: -1,
	}
	t.missActive = true
}

// MissMSHR stamps the L1D MSHR allocation time.
func (t *Tracer) MissMSHR(at uint64) {
	if t.missActive {
		t.miss.MSHRAt = at
	}
}

// MissDir stamps acceptance at the home directory: arrival cycle, mesh
// hop count, NACK retries, the sharer count found, and the request leg's
// mesh queueing. Ignored when no miss is open (stream-buffer prefetches).
func (t *Tracer) MissDir(home int, at uint64, hops, retries, sharers int, reqQueue uint64) {
	if !t.missActive {
		return
	}
	t.miss.Home = int16(home)
	t.miss.DirAt = at
	t.miss.Hops = int16(hops)
	t.miss.Retries = int16(retries)
	t.miss.Sharers = int16(sharers)
	t.miss.ReqQueue = reqQueue
}

// MissSource stamps the cycle the data source finished producing the
// line: the owner's cache for interventions (owner >= 0) or the memory
// bank (owner < 0).
func (t *Tracer) MissSource(at uint64, owner int) {
	if !t.missActive {
		return
	}
	t.miss.SrcAt = at
	t.miss.SrcOwner = int16(owner)
}

// EndMiss completes and commits the open lifecycle.
func (t *Tracer) EndMiss(lineAddr, done uint64, class uint8, migratory, tlbMiss bool) {
	if !t.missActive {
		return
	}
	t.missActive = false
	ev := t.miss
	ev.Addr = lineAddr
	ev.End = done
	ev.Class = Class(class)
	ev.Migratory = migratory
	ev.TLBMiss = tlbMiss
	t.an.addMiss(&ev)
	t.commit(ev)
}

// CancelMiss abandons the open lifecycle (the access hit after all).
func (t *Tracer) CancelMiss() { t.missActive = false }

// Writeback records a dirty L2 victim leaving node for its home.
func (t *Tracer) Writeback(node int, lineAddr, now uint64) {
	t.commit(Event{
		Kind: KindWriteback, CPU: int16(node), Proc: -1, Addr: lineAddr,
		Start: now, End: now,
	})
}
