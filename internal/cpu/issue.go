package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/trace"
)

// The issue scheduler keeps every waiting (not yet executing) window entry
// of an out-of-order core in exactly one of three places, so the issue
// stage touches only entries that can act this cycle (in-order cores keep
// every waiting entry in the ready set; see issueStage):
//
//   - the ready set: one bit per ring slot, split by the functional unit
//     the entry's next step needs. The step's inputs are available now.
//   - the wake list of a producer that has not issued: the entry's inputs
//     have no time yet. Lists are intrusive (robEntry.wake heads,
//     robEntry.wakeNext links) and are drained when the producer issues.
//   - the timed queue, until the cycle its inputs become available (every
//     producer is executing): a bit in the soon set when that cycle is the
//     next one, otherwise a key in the later list (robEntry.at).
//
// A load whose cache access the consistency model holds back moves from
// the ready set into its held subset once it has issued its consistency
// prefetch. The model holds every younger load while it holds an older
// one, so the issue walk and robNextEvent check only the oldest held load
// (see issueStage).
//
// Scheduler state is derived from the window entries: rollback, SwitchTo
// and Restore rebuild it, and checkpoints do not carry it.

// Ready-set classes: the functional unit an entry's next step needs.
const (
	clsInt = iota // integer ALU: integer ops and branches
	clsFP         // FP unit
	clsAG         // address generation: first step of loads and stores
	clsMem        // no unit: a load's cache access, a store's completion
)

// Program-order classes for the consistency checks.
const (
	ordLoad  = iota // in-window loads not yet known to be performed
	ordStore        // in-window stores
	ordFence        // in-window memory barriers and lock acquires
)

// schedWord holds the scheduler's bit sets for 64 ring slots, one bit
// per slot, together so a walk touches one cache line per word.
type schedWord struct {
	ready [4]uint64 // ready set, by class (cls*)
	held  uint64    // ready loads the consistency model holds back
	soon  [4]uint64 // timed entries whose inputs arrive at soonAt, by class
	order [3]uint64 // program-order classes (ord*)
}

// readyClass is the ready-set class of waiting entry i's next step.
func (c *Core) readyClass(i uint64) int {
	e := &c.rob[i]
	switch e.in.Op {
	case trace.OpFPALU:
		return clsFP
	case trace.OpLoad, trace.OpStore:
		if e.addrDone == 0 {
			return clsAG
		}
		return clsMem
	}
	return clsInt
}

// inReady reports whether entry i is in the ready set, held loads aside.
func (c *Core) inReady(i uint64) bool {
	return c.sw[i>>6].ready[c.readyClass(i)]&(1<<(i&63)) != 0
}

// isHeld reports whether entry i is a held load.
func (c *Core) isHeld(i uint64) bool { return c.sw[i>>6].held&(1<<(i&63)) != 0 }

// hold moves ready load i, which the consistency model holds back, into
// the held set.
func (c *Core) hold(i uint64) {
	w, bit := &c.sw[i>>6], uint64(1)<<(i&63)
	w.ready[clsMem] &^= bit
	w.held |= bit
}

// operands returns the cycle entry i's fetch and source operands are all
// available, or blocked with the ring slot of a producer that has not
// issued (a retired producer's result is available).
func (c *Core) operands(i uint64) (t, prod uint64, blocked bool) {
	e := &c.rob[i]
	t = e.fetchDone
	for _, p := range [2]uint64{e.prod1, e.prod2} {
		if p == noProd || !c.live(p) {
			continue
		}
		j := p & c.robMask
		if c.rob[j].state != stExec {
			return 0, j, true
		}
		t = maxU(t, c.rob[j].complete)
	}
	return t, 0, false
}

// stepInputs is operands for waiting entry i's next step: a load's cache
// access waits only for its address, and a store's completion also for
// its address.
func (c *Core) stepInputs(i uint64) (t, prod uint64, blocked bool) {
	e := &c.rob[i]
	if e.in.Op == trace.OpLoad && e.addrDone != 0 {
		return maxU(e.fetchDone, e.addrDone), 0, false
	}
	t, prod, blocked = c.operands(i)
	if e.in.Op == trace.OpStore {
		t = maxU(t, e.addrDone)
	}
	return t, prod, blocked
}

// place files waiting entry seq by when its next step's inputs are
// available at cycle now. In-order cores file every waiting entry in the
// ready set: their issue walk stops at the first waiting entry that
// cannot act, so it checks that one entry's inputs directly instead.
func (c *Core) place(seq, now uint64) {
	i := seq & c.robMask
	e := &c.rob[i]
	if c.cfg.InOrder {
		c.sw[i>>6].ready[c.readyClass(i)] |= 1 << (i & 63)
		return
	}
	t, j, blocked := c.stepInputs(i)
	switch {
	case blocked:
		e.wakeNext = c.rob[j].wake
		c.rob[j].wake = seq
	case t <= now:
		c.sw[i>>6].ready[c.readyClass(i)] |= 1 << (i & 63)
	case t == now+1 && (c.soonN == 0 || c.soonAt == t):
		c.sw[i>>6].soon[c.readyClass(i)] |= 1 << (i & 63)
		c.soonAt = t
		c.soonN++
	default:
		e.at = t
		c.later = append(c.later, t<<c.ringBits|i)
		c.laterMin = min(c.laterMin, t)
	}
}

// unplace takes a ready, held or timed entry out of the scheduler (a
// later-list key goes stale and is dropped by the next sweep).
func (c *Core) unplace(i uint64) {
	w, k, bit := i>>6, c.readyClass(i), uint64(1)<<(i&63)
	c.sw[w].ready[k] &^= bit
	c.sw[w].held &^= bit
	if c.sw[w].soon[k]&bit != 0 {
		c.sw[w].soon[k] &^= bit
		c.soonN--
	}
	c.rob[i].at = 0
}

// started marks ready entry i executing with result time complete and
// refiles the consumers waiting for it to issue.
func (c *Core) started(i, complete, now uint64) {
	e := &c.rob[i]
	c.unplace(i)
	e.state = stExec
	c.waiting--
	e.complete = complete
	s := e.wake
	e.wake = 0
	for s != 0 {
		next := c.rob[s&c.robMask].wakeNext
		c.place(s, now)
		s = next
	}
}

// retimed refiles the ready and timed consumers of entry seq, whose
// result time changed after they were filed: a lock acquire or SC store
// rewritten at retirement, or a producer retiring before its result time.
// A consumer whose other producer has not issued stays on that one's list.
func (c *Core) retimed(seq, now uint64) {
	for q := seq + 1; q < c.tailSeq; q++ {
		k := q & c.robMask
		if e := &c.rob[k]; e.prod1 != seq && e.prod2 != seq || e.state == stExec {
			continue
		}
		if _, _, blocked := c.operands(k); !blocked {
			c.unplace(k)
			c.place(q, now)
		}
	}
}

// rebuildSched refiles every window entry at cycle now, in O(window).
func (c *Core) rebuildSched(now uint64) {
	clear(c.sw)
	c.soonN = 0
	c.later, c.laterMin = c.later[:0], EventNever
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		i := seq & c.robMask
		e := &c.rob[i]
		e.wake = 0
		e.at = 0
		c.orderAdd(i)
		if e.state != stExec {
			// Producers are older, so their lists were reset above.
			c.place(seq, now)
		}
	}
}

// wakeTimed moves every timed entry whose inputs are available at cycle
// now into the ready set. The later list is swept only when its cached
// minimum is due; the sweep drops stale keys and recomputes the minimum.
func (c *Core) wakeTimed(now uint64) {
	if c.soonN > 0 && c.soonAt <= now {
		for w := range c.sw {
			r, s := &c.sw[w].ready, &c.sw[w].soon
			for k := range s {
				r[k] |= s[k]
			}
			*s = [4]uint64{}
		}
		c.soonN = 0
	}
	if c.laterMin > now {
		return
	}
	keep, next := c.later[:0], uint64(EventNever)
	for _, key := range c.later {
		t, i := key>>c.ringBits, key&c.robMask
		switch {
		case c.rob[i].at != t: // stale
		case t <= now:
			c.rob[i].at = 0
			c.sw[i>>6].ready[c.readyClass(i)] |= 1 << (i & 63)
		default:
			keep = append(keep, key)
			next = min(next, t)
		}
	}
	c.later, c.laterMin = keep, next
}

// orderAdd enters window entry i in its program-order class, if the
// consistency model consults that class: fences always, loads under PC
// and SC, stores under SC.
func (c *Core) orderAdd(i uint64) {
	var k int
	switch c.rob[i].in.Op {
	case trace.OpMemBar, trace.OpLockAcquire:
		k = ordFence
	case trace.OpLoad:
		if c.cfg.Consistency == config.RC {
			return
		}
		k = ordLoad
	case trace.OpStore:
		if c.cfg.Consistency != config.SC {
			return
		}
		k = ordStore
	default:
		return
	}
	c.sw[i>>6].order[k] |= 1 << (i & 63)
}

// orderDrop removes retiring entry i from the program-order classes.
func (c *Core) orderDrop(i uint64) {
	o := &c.sw[i>>6].order
	bit := uint64(1) << (i & 63)
	o[ordLoad] &^= bit
	o[ordStore] &^= bit
	o[ordFence] &^= bit
}

// ringNext returns the oldest sequence number in [from, end) whose ring
// slot has a bit set in word(w), the combined bits of ring word w.
func (c *Core) ringNext(from, end uint64, word func(w *schedWord) uint64) (uint64, bool) {
	for from < end {
		p := from & c.robMask
		b := p & 63
		if m := word(&c.sw[p>>6]) >> b; m != 0 {
			s := from + uint64(bits.TrailingZeros64(m))
			return s, s < end
		}
		from += min(64-b, c.robMask+1-p) // to the next word or the ring's wrap
	}
	return 0, false
}

// nextReady returns the oldest ready entry at or after from whose
// functional-unit class is enabled in en (all ones or zero per class;
// en[clsMem] enables held loads): ringNext over the enabled classes,
// written out for the issue walk.
func (c *Core) nextReady(from uint64, en *[4]uint64) (uint64, bool) {
	for end := c.tailSeq; from < end; {
		p := from & c.robMask
		b := p & 63
		w := &c.sw[p>>6]
		r := &w.ready
		if m := (r[clsInt]&en[clsInt] | r[clsFP]&en[clsFP] | r[clsAG]&en[clsAG] | r[clsMem] | w.held&en[clsMem]) >> b; m != 0 {
			s := from + uint64(bits.TrailingZeros64(m))
			return s, s < end
		}
		from += min(64-b, c.robMask+1-p)
	}
	return 0, false
}

// olderIn reports whether an entry older than seq has program-order class k.
func (c *Core) olderIn(k int, seq uint64) bool {
	_, ok := c.ringNext(c.headSeq, seq, func(w *schedWord) uint64 { return w.order[k] })
	return ok
}

// olderLoadUnperformed reports whether a load older than seq has not
// performed by cycle now. A load found performed leaves the class for
// good: it stays performed until it retires or a rollback rebuilds.
func (c *Core) olderLoadUnperformed(seq, now uint64) bool {
	for from := c.headSeq; ; {
		s, ok := c.ringNext(from, seq, func(w *schedWord) uint64 { return w.order[ordLoad] })
		if !ok {
			return false
		}
		k := s & c.robMask
		if e := &c.rob[k]; e.flags&fIssuedMem == 0 || e.complete > now {
			return true
		}
		c.sw[k>>6].order[ordLoad] &^= 1 << (k & 63)
		from = s + 1
	}
}

// loadAllowed is the consistency model's verdict on load seq accessing
// the cache at cycle now: no older fence, and under PC no older
// unperformed load, under SC no older unperformed memory operation.
func (c *Core) loadAllowed(seq, now uint64) bool {
	if c.fenceCount > 0 && c.olderIn(ordFence, seq) {
		return false
	}
	switch c.cfg.Consistency {
	case config.PC:
		return !c.olderLoadUnperformed(seq, now)
	case config.SC:
		return !c.olderIn(ordStore, seq) && !c.olderLoadUnperformed(seq, now)
	}
	return true
}

// loadCanAct reports whether load seq (ring slot i), its address
// generated, would do anything at cycle now: access the cache, allowed or
// speculatively, or issue its one consistency prefetch.
func (c *Core) loadCanAct(seq, i, now uint64) bool {
	if c.loadAllowed(seq, now) {
		return true
	}
	switch c.cfg.ConsistencyOpts {
	case config.ImplSpeculative:
		return true
	case config.ImplPrefetch:
		return c.rob[i].flags&fPrefetch == 0
	}
	return false
}

// ----------------------------------------------------------------- issue --

// issueStage starts ready instructions in program order, subject to
// functional units, issue width and the memory consistency model. It
// walks the ready set, skipping classes whose unit is used up, so it
// decides exactly as a walk over the whole window would: an entry that is
// not ready, or whose unit is busy, makes no progress and has no effect
// on younger entries, and the walk stops when the issue width runs out.
// In-order cores keep every waiting entry in the ready set, check each
// one's inputs as the walk reaches it, and stop at the first one that
// makes no progress, except a store whose address is still being
// generated.
//
// Out-of-order cores walk held loads too, until the consistency model
// holds one: it then holds every younger load this cycle, so the walk
// masks the held set off and moves each younger ready load into it
// without asking the model (after its consistency prefetch).
func (c *Core) issueStage(now uint64) {
	if c.waiting == 0 {
		return
	}
	c.wakeTimed(now)
	intFree, fpFree, agFree := c.cfg.IntALUs, c.cfg.FPUs, c.cfg.AddrGenUnits
	if c.cfg.InfiniteFUs {
		intFree, fpFree, agFree = 1<<30, 1<<30, 1<<30
	}
	inOrder := c.cfg.InOrder
	enabled := func(free int) uint64 {
		if free > 0 || inOrder { // a busy unit stops in-order issue: visit it
			return ^uint64(0)
		}
		return 0
	}
	en := [4]uint64{enabled(intFree), enabled(fpFree), enabled(agFree), ^uint64(0)}
	holding := false // the model holds an older load this cycle
	budget := c.cfg.IssueWidth
	for seq := c.headSeq; budget > 0; seq++ {
		var ok bool
		if seq, ok = c.nextReady(seq, &en); !ok {
			return
		}
		i := seq & c.robMask
		e := &c.rob[i]
		if inOrder {
			if t, _, blocked := c.stepInputs(i); blocked || t > now {
				if t, _, blocked := c.operands(i); e.in.Op == trace.OpStore &&
					e.addrDone > now && !blocked && t <= now {
					continue // a pending store address does not stop in-order issue
				}
				return
			}
		}
		switch op := e.in.Op; op {
		case trace.OpLoad, trace.OpStore:
			if e.addrDone == 0 {
				if agFree == 0 {
					break
				}
				agFree--
				budget--
				en[clsAG] = enabled(agFree)
				c.unplace(i)
				e.addrDone = now + 1
				c.place(seq, now)
				continue
			}
			if op == trace.OpStore {
				// Stores execute (address + data ready) here; the memory
				// access happens at retirement per the consistency model.
				c.started(i, e.addrDone, now)
				if c.cfg.ConsistencyOpts != config.ImplPlain && e.flags&fPrefetch == 0 {
					// Hardware prefetch from the window: request ownership
					// early for stores blocked by consistency/retirement.
					c.mem.Prefetch(e.in.Addr, e.in.PC, now, true, c.inCS())
					e.flags |= fPrefetch
				}
				continue
			}
			if c.accessLoad(seq, i, now, holding) {
				continue
			}
			if !inOrder {
				c.hold(i)
				holding, en[clsMem] = true, 0
				continue
			}
		case trace.OpFPALU:
			if fpFree == 0 {
				break
			}
			fpFree--
			budget--
			en[clsFP] = enabled(fpFree)
			c.started(i, now+uint64(c.cfg.FPLatency), now)
			continue
		default: // integer ALU and branches
			if intFree == 0 {
				break
			}
			intFree--
			budget--
			en[clsInt] = enabled(intFree)
			c.started(i, now+uint64(c.cfg.IntLatency), now)
			continue
		}
		if inOrder {
			return
		}
	}
}

// accessLoad performs ready load seq's cache access under the consistency
// model, returning false when the model holds it back this cycle (after
// issuing the consistency prefetch, under that implementation). held says
// the model is known to hold it: it holds an older load.
func (c *Core) accessLoad(seq, i, now uint64, held bool) bool {
	e := &c.rob[i]
	spec := false
	if held || !c.loadAllowed(seq, now) {
		switch c.cfg.ConsistencyOpts {
		case config.ImplPlain:
			return false
		case config.ImplPrefetch:
			if e.flags&fPrefetch == 0 {
				c.mem.Prefetch(e.in.Addr, e.in.PC, now, false, c.inCS())
				e.flags |= fPrefetch
			}
			return false
		case config.ImplSpeculative:
			spec = true
		}
	}
	if c.cfg.DebugChecks && !spec {
		c.dbgCheckLoadBind(now, e.in.PC)
	}
	res := c.mem.DataRead(e.in.Addr, e.in.PC, now, c.inCS())
	e.flags |= fIssuedMem
	e.class = res.Class
	if res.TLBMiss {
		e.flags |= fTLBMiss
	}
	e.lineAddr = res.LineAddr // physical, as delivered by invalidation hooks
	if spec {
		e.flags |= fSpecLoad
		c.SpecLoads++
	}
	c.started(i, res.Done, now)
	if c.ctx.tx != nil {
		c.trackRead(res.LineAddr)
	}
	return true
}

// schedActsNext reports, from the ready set and the timed queue alone,
// that some waiting entry of an out-of-order core can make issue progress
// at cycle now+1 — a case in which the full robNextEvent walk returns
// now+1. A load whose cache access waits on a consistency decision is
// left to the walk unless the decision lets it act. Of the held loads it
// checks only the oldest: if the model holds that one, it holds them all.
func (c *Core) schedActsNext(now uint64) bool {
	if c.soonN > 0 && c.soonAt == now+1 {
		return true
	}
	if c.laterMin == now+1 {
		c.wakeTimed(now) // drop stale keys: the minimum may be one
		if c.laterMin == now+1 {
			return true
		}
	}
	if s, ok := c.ringNext(c.headSeq, c.tailSeq, func(w *schedWord) uint64 { return w.held }); ok &&
		c.loadCanAct(s, s&c.robMask, now) {
		return true
	}
	unheld := [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), 0}
	for seq := c.headSeq; ; seq++ {
		var ok bool
		if seq, ok = c.nextReady(seq, &unheld); !ok {
			return false
		}
		i := seq & c.robMask
		e := &c.rob[i]
		if e.in.Op != trace.OpLoad || e.addrDone == 0 || c.loadCanAct(seq, i, now) {
			return true
		}
	}
}

// checkSched asserts the scheduler invariant (cfg.DebugChecks): every
// waiting entry of an out-of-order core is filed in exactly one of the
// ready set, a wake list and the timed queue — in the ready set (held
// loads included) exactly when its next step's inputs are available at
// cycle now, timed at the cycle they will be — every waiting entry of an
// in-order core is in the ready set and none is held, only loads whose
// address is generated and whose consistency prefetch (if any) is issued
// are held, and no set holds anything else.
func (c *Core) checkSched(now uint64) {
	onWake := make([]int, len(c.rob))   // by ring slot
	inLater := make([]bool, len(c.rob)) // a live key at or above laterMin
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		for s := c.rob[seq&c.robMask].wake; s != 0 && c.live(s); s = c.rob[s&c.robMask].wakeNext {
			onWake[s&c.robMask]++
		}
	}
	for _, key := range c.later {
		if i := key & c.robMask; c.rob[i].at == key>>c.ringBits && c.rob[i].at >= c.laterMin {
			inLater[i] = true
		}
	}
	one := map[bool]int{true: 1}
	filed, soonN := 0, 0
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		i := seq & c.robMask
		e := &c.rob[i]
		held := c.isHeld(i)
		ready, soon, later := c.inReady(i), c.sw[i>>6].soon[c.readyClass(i)]&(1<<(i&63)) != 0, inLater[i]
		places := onWake[i] + one[ready] + one[held] + one[soon] + one[later]
		filed, soonN = filed+one[ready]+one[held]+one[soon], soonN+one[soon]
		ready = ready || held
		t, _, blocked := c.stepInputs(i)
		ok := places == 0
		switch {
		case e.state == stExec:
		case c.cfg.InOrder:
			ok = places == 1 && ready && !held
		case held && (e.in.Op != trace.OpLoad || e.addrDone == 0 || c.cfg.ConsistencyOpts == config.ImplSpeculative ||
			c.cfg.ConsistencyOpts == config.ImplPrefetch && e.flags&fPrefetch == 0):
			ok = false
		default:
			ok = places == 1 && blocked == (onWake[i] == 1) && (blocked || ready == (t <= now) &&
				(!soon || t == c.soonAt) && (!later || t == e.at))
		}
		if !ok {
			panic(fmt.Sprintf("cpu%d: issue scheduler: seq %d (now %d, inputs at %d, blocked %v) filed ready %v held %v soon %v later %v wake %d",
				c.id, seq, now, t, blocked, ready, held, soon, later, onWake[i]))
		}
	}
	setBits, soonBits := 0, 0
	for _, w := range c.sw {
		setBits += bits.OnesCount64(w.held)
		for k := range w.ready {
			setBits += bits.OnesCount64(w.ready[k]) + bits.OnesCount64(w.soon[k])
			soonBits += bits.OnesCount64(w.soon[k])
		}
	}
	if setBits != filed || soonBits != soonN || soonN != c.soonN {
		panic(fmt.Sprintf("cpu%d: issue scheduler: %d ready/held/soon bits for %d filed entries, %d soon bits, soon count %d",
			c.id, setBits, filed, soonBits, c.soonN))
	}
}
