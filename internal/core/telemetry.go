package core

import (
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// telemetryState drives interval sampling for one run. The collector is a
// pure observer: it reads counters the machine already maintains (and the
// pipeline's registered probes) and publishes deltas; it never calls
// anything that advances or mutates simulated state, so runs with and
// without telemetry are cycle-identical (TestTelemetryDeterminism).
type telemetryState struct {
	pipe     *telemetry.Pipeline
	interval uint64
	nextAt   uint64 // next sample cycle
	seq      int

	prev    telemetrySnap
	scratch telemetrySnap // recycled buffers for the next snapshot

	// recording retains every published sample (checkpointing armed):
	// a restored run re-publishes them into its fresh sinks so the
	// final series is byte-identical to an uninterrupted run's.
	recording bool
	record    []telemetry.Sample
}

// telemetrySnap is the cumulative-counter snapshot taken at the previous
// sample; deltas against it form the next Sample. Counters can move
// backwards across a warm-up statistics reset, so every delta is clamped
// at zero.
type telemetrySnap struct {
	cycle   uint64
	retired []uint64
	bk      []stats.Breakdown
	robOcc  [][5]uint64

	idle uint64

	lockTries, lockWaits, lockSpins       uint64
	lockAcquires, lockContended, lockHand uint64

	htmBegins, htmCommits, htmFallbacks   uint64
	htmConflict, htmCapacity, htmExplicit uint64

	instr                      uint64
	l1iM, l1dM, l2M            uint64
	sbHits, sbMisses           uint64
	l1dOcc, l2Occ              []uint64
	dirReads, dirReadsDirty    uint64
	dirWrites, dirWritesShared uint64
	dirUpgrades, dirWritebacks uint64
	dirFlushes, dirMigratory   uint64
	meshMsgs, meshFlits        uint64
	meshLatency, meshQueue     uint64
	probes                     []uint64
}

// newTelemetry attaches a collector for opt.Telemetry, or returns nil
// when the run has no pipeline. The sampling period resolves pipeline
// interval → cfg.TelemetryInterval → telemetry.DefaultInterval.
func (s *System) newTelemetry(opt RunOptions) *telemetryState {
	if opt.Telemetry == nil {
		return nil
	}
	interval := opt.Telemetry.Interval
	if interval == 0 {
		interval = s.cfg.TelemetryInterval
	}
	if interval == 0 {
		interval = telemetry.DefaultInterval
	}
	ts := &telemetryState{
		pipe:      opt.Telemetry,
		interval:  interval,
		nextAt:    s.cycle + interval,
		recording: opt.Checkpoint != nil,
	}
	ts.prev = s.telemetrySnapshot(&ts.prev)
	for _, p := range opt.Telemetry.Probes() {
		ts.prev.probes = append(ts.prev.probes, p.Read())
	}
	return ts
}

// maybeSample publishes a sample when the machine has crossed the next
// interval boundary.
func (ts *telemetryState) maybeSample(s *System) {
	if s.cycle >= ts.nextAt {
		s.settleAll()
		ts.sample(s)
		ts.nextAt = s.cycle + ts.interval
	}
}

// flush publishes the final partial interval (no-op when the last sample
// already covers the current cycle).
func (ts *telemetryState) flush(s *System) {
	if s.cycle > ts.prev.cycle {
		ts.sample(s)
	}
}

// telemetrySnapshot reads every cumulative counter the samples are
// derived from. buf is recycled between samples to keep the steady-state
// allocation rate near zero.
func (s *System) telemetrySnapshot(buf *telemetrySnap) telemetrySnap {
	var snap telemetrySnap
	if buf != nil {
		snap = *buf
	}
	snap.cycle = s.cycle
	snap.retired = snap.retired[:0]
	snap.bk = snap.bk[:0]
	snap.robOcc = snap.robOcc[:0]
	snap.lockTries, snap.lockWaits, snap.lockSpins = 0, 0, 0
	snap.htmBegins, snap.htmCommits, snap.htmFallbacks = 0, 0, 0
	snap.htmConflict, snap.htmCapacity, snap.htmExplicit = 0, 0, 0
	for _, c := range s.cores {
		snap.retired = append(snap.retired, c.Retired)
		snap.bk = append(snap.bk, c.Bk)
		snap.robOcc = append(snap.robOcc, c.ROBOcc)
		snap.lockTries += c.LockTries
		snap.lockWaits += c.LockWaits
		snap.lockSpins += c.LockSpins
		snap.htmBegins += c.HTMBegins
		snap.htmCommits += c.HTMCommits
		snap.htmFallbacks += c.HTMFallbacks
		snap.htmConflict += c.HTMConflictAborts
		snap.htmCapacity += c.HTMCapacityAborts
		snap.htmExplicit += c.HTMExplicitAborts
	}
	snap.lockAcquires, snap.lockContended, snap.lockHand = s.locks.Counters()

	snap.idle = 0
	for i := 0; i < s.cfg.Nodes; i++ {
		snap.idle += s.sch.IdleCycles[i] + s.sch.SwitchCycles[i]
	}

	snap.instr, snap.l1iM, snap.l1dM, snap.l2M = 0, 0, 0, 0
	snap.sbHits, snap.sbMisses = 0, 0
	snap.l1dOcc = snap.l1dOcc[:0]
	snap.l2Occ = snap.l2Occ[:0]
	if cap(snap.l1dOcc) < s.cfg.L1D.MSHRs+1 {
		snap.l1dOcc = make([]uint64, 0, s.cfg.L1D.MSHRs+1)
	}
	if cap(snap.l2Occ) < s.cfg.L2.MSHRs+1 {
		snap.l2Occ = make([]uint64, 0, s.cfg.L2.MSHRs+1)
	}
	snap.l1dOcc = snap.l1dOcc[:s.cfg.L1D.MSHRs+1]
	snap.l2Occ = snap.l2Occ[:s.cfg.L2.MSHRs+1]
	for i := range snap.l1dOcc {
		snap.l1dOcc[i] = 0
	}
	for i := range snap.l2Occ {
		snap.l2Occ[i] = 0
	}
	for _, r := range snap.retired {
		snap.instr += r
	}
	for n := 0; n < s.cfg.Nodes; n++ {
		h := s.mem.Node(n)
		snap.l1iM += h.L1I().ReadMisses + h.L1I().WriteMisses - h.IFetchSBHits
		snap.l1dM += h.L1D().ReadMisses + h.L1D().WriteMisses
		snap.l2M += h.L2().ReadMisses + h.L2().WriteMisses
		if sb := h.StreamBuffer(); sb != nil {
			snap.sbHits += sb.Hits
			snap.sbMisses += sb.Misses
		}
		// Raw per-occupancy cycle counters, read as-is: forcing a settle
		// here would retire in-flight MSHR entries early and is the kind
		// of side effect a pure observer must not have. The histograms
		// lag at most one memory-system event.
		occ, _ := h.L1DMSHRs().RawOccupancy()
		for i := 0; i < len(occ) && i < len(snap.l1dOcc); i++ {
			snap.l1dOcc[i] += occ[i]
		}
		occ, _ = h.L2MSHRs().RawOccupancy()
		for i := 0; i < len(occ) && i < len(snap.l2Occ); i++ {
			snap.l2Occ[i] += occ[i]
		}
	}

	dir := s.mem.Directory()
	snap.dirReads, snap.dirReadsDirty = dir.Reads, dir.ReadsDirty
	snap.dirWrites, snap.dirWritesShared = dir.Writes, dir.WritesShared
	snap.dirUpgrades, snap.dirWritebacks = dir.Upgrades, dir.Writebacks
	snap.dirFlushes, snap.dirMigratory = dir.Flushes, dir.MigratoryTransfers

	net := s.mem.Net()
	snap.meshMsgs, snap.meshFlits = net.Messages, net.FlitsCarried
	snap.meshLatency, snap.meshQueue = net.TotalLatency, net.QueueCycles

	return snap
}

// dsub is the clamped counter delta (statistics resets move counters
// backwards; time does not run backwards in a sample).
func dsub(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// sample publishes the interval since the previous snapshot.
func (ts *telemetryState) sample(s *System) {
	cur := s.telemetrySnapshot(&ts.scratch)
	prev := &ts.prev
	cycles := dsub(cur.cycle, prev.cycle)
	if cycles == 0 {
		return
	}

	sm := &telemetry.Sample{
		Seq:    ts.seq,
		Cycle:  cur.cycle,
		Cycles: cycles,
		Tags:   ts.pipe.Tags,

		Instructions: dsub(cur.instr, prev.instr),
		Idle:         dsub(cur.idle, prev.idle),

		StreamBufHits:   dsub(cur.sbHits, prev.sbHits),
		StreamBufMisses: dsub(cur.sbMisses, prev.sbMisses),

		Dir: telemetry.DirSample{
			Reads:              dsub(cur.dirReads, prev.dirReads),
			ReadsDirty:         dsub(cur.dirReadsDirty, prev.dirReadsDirty),
			Writes:             dsub(cur.dirWrites, prev.dirWrites),
			WritesShared:       dsub(cur.dirWritesShared, prev.dirWritesShared),
			Upgrades:           dsub(cur.dirUpgrades, prev.dirUpgrades),
			Writebacks:         dsub(cur.dirWritebacks, prev.dirWritebacks),
			Flushes:            dsub(cur.dirFlushes, prev.dirFlushes),
			MigratoryTransfers: dsub(cur.dirMigratory, prev.dirMigratory),
		},
		Mesh: telemetry.MeshSample{
			Messages:    dsub(cur.meshMsgs, prev.meshMsgs),
			Flits:       dsub(cur.meshFlits, prev.meshFlits),
			QueueCycles: dsub(cur.meshQueue, prev.meshQueue),
		},
		Locks: telemetry.LockSample{
			Tries:      dsub(cur.lockTries, prev.lockTries),
			Waits:      dsub(cur.lockWaits, prev.lockWaits),
			SpinCycles: dsub(cur.lockSpins, prev.lockSpins),
			Acquires:   dsub(cur.lockAcquires, prev.lockAcquires),
			Contended:  dsub(cur.lockContended, prev.lockContended),
			Handoffs:   dsub(cur.lockHand, prev.lockHand),
		},
		HTM: telemetry.HTMSample{
			Begins:         dsub(cur.htmBegins, prev.htmBegins),
			Commits:        dsub(cur.htmCommits, prev.htmCommits),
			ConflictAborts: dsub(cur.htmConflict, prev.htmConflict),
			CapacityAborts: dsub(cur.htmCapacity, prev.htmCapacity),
			ExplicitAborts: dsub(cur.htmExplicit, prev.htmExplicit),
			Fallbacks:      dsub(cur.htmFallbacks, prev.htmFallbacks),
		},
	}
	if lat := dsub(cur.meshLatency, prev.meshLatency); sm.Mesh.Messages > 0 {
		sm.Mesh.AvgLatency = float64(lat) / float64(sm.Mesh.Messages)
	}

	busy := float64(cycles)*float64(s.cfg.Nodes) - float64(sm.Idle)
	if busy > 0 {
		sm.IPC = float64(sm.Instructions) / busy
	}
	if sm.Instructions > 0 {
		k := float64(sm.Instructions) / 1000
		sm.L1IMisses = float64(dsub(cur.l1iM, prev.l1iM)) / k
		sm.L1DMisses = float64(dsub(cur.l1dM, prev.l1dM)) / k
		sm.L2Misses = float64(dsub(cur.l2M, prev.l2M)) / k
	}

	sm.L1DMSHROcc = histDelta(cur.l1dOcc, prev.l1dOcc)
	sm.L2MSHROcc = histDelta(cur.l2Occ, prev.l2Occ)
	rob := telemetry.Histogram{Buckets: make([]uint64, 5)}
	for i, occ := range cur.robOcc {
		var po [5]uint64
		if i < len(prev.robOcc) {
			po = prev.robOcc[i]
		}
		for b := 0; b < 5; b++ {
			rob.Buckets[b] += dsub(occ[b], po[b])
		}
	}
	sm.ROBOcc = rob

	for i, c := range s.cores {
		var pr uint64
		if i < len(prev.retired) {
			pr = prev.retired[i]
		}
		cs := telemetry.CoreSample{
			ID:        i,
			ContextID: -1,
			Retired:   dsub(c.Retired, pr),
			ROBLen:    c.ROBLen(),
		}
		cs.IPC = float64(cs.Retired) / float64(cycles)
		if ctx := c.Context(); ctx != nil {
			cs.ContextID = ctx.ID
		}
		var pb stats.Breakdown
		if i < len(prev.bk) {
			pb = prev.bk[i]
		}
		delta := cur.bk[i].Sub(&pb)
		sm.Breakdown.Add(&delta)
		sm.Cores = append(sm.Cores, cs)
	}

	cur.probes = cur.probes[:0]
	if probes := ts.pipe.Probes(); len(probes) > 0 {
		sm.Probes = make(map[string]uint64, len(probes))
		for i, p := range probes {
			v := p.Read()
			var pv uint64
			if i < len(prev.probes) {
				pv = prev.probes[i]
			}
			sm.Probes[p.Name] = dsub(v, pv)
			cur.probes = append(cur.probes, v)
		}
	}

	ts.pipe.Publish(sm)
	if ts.recording {
		ts.record = append(ts.record, *sm)
	}
	ts.seq++
	ts.scratch = ts.prev // recycle the old snapshot's buffers
	ts.prev = cur
}

// checkpoint captures the collector's cursor and the published samples.
func (ts *telemetryState) checkpoint() *TelemetryRunState {
	rs := &TelemetryRunState{
		Seq:     ts.seq,
		NextAt:  ts.nextAt,
		Prev:    snapState(&ts.prev),
		Samples: append([]telemetry.Sample(nil), ts.record...),
	}
	return rs
}

// restore rewinds a fresh collector to a checkpoint: the recorded
// samples are re-published into the (fresh) sinks, then the cursor
// picks up where the interrupted run left off.
func (ts *telemetryState) restore(rs *TelemetryRunState) {
	for i := range rs.Samples {
		sm := rs.Samples[i]
		ts.pipe.Publish(&sm)
	}
	ts.record = append(ts.record[:0], rs.Samples...)
	ts.recording = true
	ts.seq = rs.Seq
	ts.nextAt = rs.NextAt
	ts.prev = snapFromState(&rs.Prev)
}

// snapState converts the internal snapshot to its checkpoint DTO.
func snapState(sn *telemetrySnap) TelemetrySnapState {
	return TelemetrySnapState{
		Cycle:         sn.cycle,
		Retired:       append([]uint64(nil), sn.retired...),
		Bk:            append([]stats.Breakdown(nil), sn.bk...),
		RobOcc:        append([][5]uint64(nil), sn.robOcc...),
		Idle:          sn.idle,
		LockTries:     sn.lockTries,
		LockWaits:     sn.lockWaits,
		LockSpins:     sn.lockSpins,
		LockAcquires:  sn.lockAcquires,
		LockContended: sn.lockContended,
		LockHand:      sn.lockHand,
		HTMBegins:     sn.htmBegins,
		HTMCommits:    sn.htmCommits,
		HTMFallbacks:  sn.htmFallbacks,
		HTMConflict:   sn.htmConflict,
		HTMCapacity:   sn.htmCapacity,
		HTMExplicit:   sn.htmExplicit,
		Instr:         sn.instr,
		L1IM:          sn.l1iM,
		L1DM:          sn.l1dM,
		L2M:           sn.l2M,
		SBHits:        sn.sbHits,
		SBMiss:        sn.sbMisses,
		L1DOcc:        append([]uint64(nil), sn.l1dOcc...),
		L2Occ:         append([]uint64(nil), sn.l2Occ...),
		DirReads:      sn.dirReads, DirReadsDirty: sn.dirReadsDirty,
		DirWrites: sn.dirWrites, DirWritesShared: sn.dirWritesShared,
		DirUpgrades: sn.dirUpgrades, DirWritebacks: sn.dirWritebacks,
		DirFlushes: sn.dirFlushes, DirMigratory: sn.dirMigratory,
		MeshMsgs: sn.meshMsgs, MeshFlits: sn.meshFlits,
		MeshLatency: sn.meshLatency, MeshQueue: sn.meshQueue,
		Probes: append([]uint64(nil), sn.probes...),
	}
}

// snapFromState inverts snapState.
func snapFromState(st *TelemetrySnapState) telemetrySnap {
	return telemetrySnap{
		cycle:         st.Cycle,
		retired:       append([]uint64(nil), st.Retired...),
		bk:            append([]stats.Breakdown(nil), st.Bk...),
		robOcc:        append([][5]uint64(nil), st.RobOcc...),
		idle:          st.Idle,
		lockTries:     st.LockTries,
		lockWaits:     st.LockWaits,
		lockSpins:     st.LockSpins,
		lockAcquires:  st.LockAcquires,
		lockContended: st.LockContended,
		lockHand:      st.LockHand,
		htmBegins:     st.HTMBegins,
		htmCommits:    st.HTMCommits,
		htmFallbacks:  st.HTMFallbacks,
		htmConflict:   st.HTMConflict,
		htmCapacity:   st.HTMCapacity,
		htmExplicit:   st.HTMExplicit,
		instr:         st.Instr,
		l1iM:          st.L1IM,
		l1dM:          st.L1DM,
		l2M:           st.L2M,
		sbHits:        st.SBHits,
		sbMisses:      st.SBMiss,
		l1dOcc:        append([]uint64(nil), st.L1DOcc...),
		l2Occ:         append([]uint64(nil), st.L2Occ...),
		dirReads:      st.DirReads, dirReadsDirty: st.DirReadsDirty,
		dirWrites: st.DirWrites, dirWritesShared: st.DirWritesShared,
		dirUpgrades: st.DirUpgrades, dirWritebacks: st.DirWritebacks,
		dirFlushes: st.DirFlushes, dirMigratory: st.DirMigratory,
		meshMsgs: st.MeshMsgs, meshFlits: st.MeshFlits,
		meshLatency: st.MeshLatency, meshQueue: st.MeshQueue,
		probes: append([]uint64(nil), st.Probes...),
	}
}

// histDelta returns the clamped elementwise delta of two raw occupancy
// histograms as a telemetry.Histogram.
func histDelta(cur, prev []uint64) telemetry.Histogram {
	out := telemetry.Histogram{Buckets: make([]uint64, len(cur))}
	for i := range cur {
		var p uint64
		if i < len(prev) {
			p = prev[i]
		}
		out.Buckets[i] = dsub(cur[i], p)
	}
	return out
}
