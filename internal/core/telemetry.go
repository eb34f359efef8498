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

	prev    TelemetrySnapState
	scratch TelemetrySnapState // recycled buffers for the next snapshot

	// recording retains every published sample (checkpointing armed):
	// a restored run re-publishes them into its fresh sinks so the
	// final series is byte-identical to an uninterrupted run's.
	recording bool
	record    []telemetry.Sample
}

// TelemetrySnapState is the cumulative-counter snapshot taken at the
// previous sample; deltas against it form the next Sample. Counters can
// move backwards across a warm-up statistics reset, so every delta is
// clamped at zero. The collector keeps it between samples, and a
// checkpoint carries a clone of it (TelemetryRunState.Prev).
type TelemetrySnapState struct {
	Cycle   uint64
	Retired []uint64
	Bk      []stats.Breakdown
	RobOcc  [][5]uint64

	Idle uint64

	LockTries, LockWaits, LockSpins       uint64
	LockAcquires, LockContended, LockHand uint64

	HTMBegins, HTMCommits, HTMFallbacks   uint64
	HTMConflict, HTMCapacity, HTMExplicit uint64

	Instr           uint64
	L1IM, L1DM, L2M uint64
	SBHits, SBMiss  uint64
	L1DOcc, L2Occ   []uint64

	DirReads, DirReadsDirty    uint64
	DirWrites, DirWritesShared uint64
	DirUpgrades, DirWritebacks uint64
	DirFlushes, DirMigratory   uint64
	MeshMsgs, MeshFlits        uint64
	MeshLatency, MeshQueue     uint64
	Probes                     []uint64
}

// clone copies the snapshot's slices, so a checkpoint image never shares
// the collector's recycled buffers.
func (sn *TelemetrySnapState) clone() TelemetrySnapState {
	c := *sn
	c.Retired = append([]uint64(nil), sn.Retired...)
	c.Bk = append([]stats.Breakdown(nil), sn.Bk...)
	c.RobOcc = append([][5]uint64(nil), sn.RobOcc...)
	c.L1DOcc = append([]uint64(nil), sn.L1DOcc...)
	c.L2Occ = append([]uint64(nil), sn.L2Occ...)
	c.Probes = append([]uint64(nil), sn.Probes...)
	return c
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
		ts.prev.Probes = append(ts.prev.Probes, p.Read())
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
	if s.cycle > ts.prev.Cycle {
		ts.sample(s)
	}
}

// telemetrySnapshot reads every cumulative counter the samples are
// derived from. buf is recycled between samples to keep the steady-state
// allocation rate near zero.
func (s *System) telemetrySnapshot(buf *TelemetrySnapState) TelemetrySnapState {
	var snap TelemetrySnapState
	if buf != nil {
		snap = *buf
	}
	snap.Cycle = s.cycle
	snap.Retired = snap.Retired[:0]
	snap.Bk = snap.Bk[:0]
	snap.RobOcc = snap.RobOcc[:0]
	snap.LockTries, snap.LockWaits, snap.LockSpins = 0, 0, 0
	snap.HTMBegins, snap.HTMCommits, snap.HTMFallbacks = 0, 0, 0
	snap.HTMConflict, snap.HTMCapacity, snap.HTMExplicit = 0, 0, 0
	for _, c := range s.cores {
		snap.Retired = append(snap.Retired, c.Retired)
		snap.Bk = append(snap.Bk, c.Bk)
		snap.RobOcc = append(snap.RobOcc, c.ROBOcc)
		snap.LockTries += c.LockTries
		snap.LockWaits += c.LockWaits
		snap.LockSpins += c.LockSpins
		snap.HTMBegins += c.HTMBegins
		snap.HTMCommits += c.HTMCommits
		snap.HTMFallbacks += c.HTMFallbacks
		snap.HTMConflict += c.HTMConflictAborts
		snap.HTMCapacity += c.HTMCapacityAborts
		snap.HTMExplicit += c.HTMExplicitAborts
	}
	snap.LockAcquires, snap.LockContended, snap.LockHand = s.locks.Counters()

	snap.Idle = 0
	for i := 0; i < s.cfg.Nodes; i++ {
		snap.Idle += s.sch.IdleCycles[i] + s.sch.SwitchCycles[i]
	}

	snap.Instr, snap.L1IM, snap.L1DM, snap.L2M = 0, 0, 0, 0
	snap.SBHits, snap.SBMiss = 0, 0
	snap.L1DOcc = snap.L1DOcc[:0]
	snap.L2Occ = snap.L2Occ[:0]
	if cap(snap.L1DOcc) < s.cfg.L1D.MSHRs+1 {
		snap.L1DOcc = make([]uint64, 0, s.cfg.L1D.MSHRs+1)
	}
	if cap(snap.L2Occ) < s.cfg.L2.MSHRs+1 {
		snap.L2Occ = make([]uint64, 0, s.cfg.L2.MSHRs+1)
	}
	snap.L1DOcc = snap.L1DOcc[:s.cfg.L1D.MSHRs+1]
	snap.L2Occ = snap.L2Occ[:s.cfg.L2.MSHRs+1]
	for i := range snap.L1DOcc {
		snap.L1DOcc[i] = 0
	}
	for i := range snap.L2Occ {
		snap.L2Occ[i] = 0
	}
	for _, r := range snap.Retired {
		snap.Instr += r
	}
	for n := 0; n < s.cfg.Nodes; n++ {
		h := s.mem.Node(n)
		snap.L1IM += h.L1I().ReadMisses + h.L1I().WriteMisses - h.IFetchSBHits
		snap.L1DM += h.L1D().ReadMisses + h.L1D().WriteMisses
		snap.L2M += h.L2().ReadMisses + h.L2().WriteMisses
		if sb := h.StreamBuffer(); sb != nil {
			snap.SBHits += sb.Hits
			snap.SBMiss += sb.Misses
		}
		// Raw per-occupancy cycle counters, read as-is: forcing a settle
		// here would retire in-flight MSHR entries early and is the kind
		// of side effect a pure observer must not have. The histograms
		// lag at most one memory-system event.
		occ, _ := h.L1DMSHRs().RawOccupancy()
		for i := 0; i < len(occ) && i < len(snap.L1DOcc); i++ {
			snap.L1DOcc[i] += occ[i]
		}
		occ, _ = h.L2MSHRs().RawOccupancy()
		for i := 0; i < len(occ) && i < len(snap.L2Occ); i++ {
			snap.L2Occ[i] += occ[i]
		}
	}

	dir := s.mem.Directory()
	snap.DirReads, snap.DirReadsDirty = dir.Reads, dir.ReadsDirty
	snap.DirWrites, snap.DirWritesShared = dir.Writes, dir.WritesShared
	snap.DirUpgrades, snap.DirWritebacks = dir.Upgrades, dir.Writebacks
	snap.DirFlushes, snap.DirMigratory = dir.Flushes, dir.MigratoryTransfers

	net := s.mem.Net()
	snap.MeshMsgs, snap.MeshFlits = net.Messages, net.FlitsCarried
	snap.MeshLatency, snap.MeshQueue = net.TotalLatency, net.QueueCycles

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
	cycles := dsub(cur.Cycle, prev.Cycle)
	if cycles == 0 {
		return
	}

	sm := &telemetry.Sample{
		Seq:    ts.seq,
		Cycle:  cur.Cycle,
		Cycles: cycles,
		Tags:   ts.pipe.Tags,

		Instructions: dsub(cur.Instr, prev.Instr),
		Idle:         dsub(cur.Idle, prev.Idle),

		StreamBufHits:   dsub(cur.SBHits, prev.SBHits),
		StreamBufMisses: dsub(cur.SBMiss, prev.SBMiss),

		Dir: telemetry.DirSample{
			Reads:              dsub(cur.DirReads, prev.DirReads),
			ReadsDirty:         dsub(cur.DirReadsDirty, prev.DirReadsDirty),
			Writes:             dsub(cur.DirWrites, prev.DirWrites),
			WritesShared:       dsub(cur.DirWritesShared, prev.DirWritesShared),
			Upgrades:           dsub(cur.DirUpgrades, prev.DirUpgrades),
			Writebacks:         dsub(cur.DirWritebacks, prev.DirWritebacks),
			Flushes:            dsub(cur.DirFlushes, prev.DirFlushes),
			MigratoryTransfers: dsub(cur.DirMigratory, prev.DirMigratory),
		},
		Mesh: telemetry.MeshSample{
			Messages:    dsub(cur.MeshMsgs, prev.MeshMsgs),
			Flits:       dsub(cur.MeshFlits, prev.MeshFlits),
			QueueCycles: dsub(cur.MeshQueue, prev.MeshQueue),
		},
		Locks: telemetry.LockSample{
			Tries:      dsub(cur.LockTries, prev.LockTries),
			Waits:      dsub(cur.LockWaits, prev.LockWaits),
			SpinCycles: dsub(cur.LockSpins, prev.LockSpins),
			Acquires:   dsub(cur.LockAcquires, prev.LockAcquires),
			Contended:  dsub(cur.LockContended, prev.LockContended),
			Handoffs:   dsub(cur.LockHand, prev.LockHand),
		},
		HTM: telemetry.HTMSample{
			Begins:         dsub(cur.HTMBegins, prev.HTMBegins),
			Commits:        dsub(cur.HTMCommits, prev.HTMCommits),
			ConflictAborts: dsub(cur.HTMConflict, prev.HTMConflict),
			CapacityAborts: dsub(cur.HTMCapacity, prev.HTMCapacity),
			ExplicitAborts: dsub(cur.HTMExplicit, prev.HTMExplicit),
			Fallbacks:      dsub(cur.HTMFallbacks, prev.HTMFallbacks),
		},
	}
	if lat := dsub(cur.MeshLatency, prev.MeshLatency); sm.Mesh.Messages > 0 {
		sm.Mesh.AvgLatency = float64(lat) / float64(sm.Mesh.Messages)
	}

	busy := float64(cycles)*float64(s.cfg.Nodes) - float64(sm.Idle)
	if busy > 0 {
		sm.IPC = float64(sm.Instructions) / busy
	}
	if sm.Instructions > 0 {
		k := float64(sm.Instructions) / 1000
		sm.L1IMisses = float64(dsub(cur.L1IM, prev.L1IM)) / k
		sm.L1DMisses = float64(dsub(cur.L1DM, prev.L1DM)) / k
		sm.L2Misses = float64(dsub(cur.L2M, prev.L2M)) / k
	}

	sm.L1DMSHROcc = histDelta(cur.L1DOcc, prev.L1DOcc)
	sm.L2MSHROcc = histDelta(cur.L2Occ, prev.L2Occ)
	rob := telemetry.Histogram{Buckets: make([]uint64, 5)}
	for i, occ := range cur.RobOcc {
		var po [5]uint64
		if i < len(prev.RobOcc) {
			po = prev.RobOcc[i]
		}
		for b := 0; b < 5; b++ {
			rob.Buckets[b] += dsub(occ[b], po[b])
		}
	}
	sm.ROBOcc = rob

	for i, c := range s.cores {
		var pr uint64
		if i < len(prev.Retired) {
			pr = prev.Retired[i]
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
		if i < len(prev.Bk) {
			pb = prev.Bk[i]
		}
		delta := cur.Bk[i].Sub(&pb)
		sm.Breakdown.Add(&delta)
		sm.Cores = append(sm.Cores, cs)
	}

	cur.Probes = cur.Probes[:0]
	if probes := ts.pipe.Probes(); len(probes) > 0 {
		sm.Probes = make(map[string]uint64, len(probes))
		for i, p := range probes {
			v := p.Read()
			var pv uint64
			if i < len(prev.Probes) {
				pv = prev.Probes[i]
			}
			sm.Probes[p.Name] = dsub(v, pv)
			cur.Probes = append(cur.Probes, v)
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
		Prev:    ts.prev.clone(),
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
	ts.prev = rs.Prev.clone()
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
