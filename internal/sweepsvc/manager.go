package sweepsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/runner"
)

// ErrLeaseLost is returned by Renew when the caller no longer holds the
// lease (it expired and was re-issued, or the point reached a terminal
// state through another worker).
var ErrLeaseLost = errors.New("sweepsvc: lease lost")

// DefaultLeaseTTL is the lease deadline horizon granted on lease and on
// every renewal. Workers heartbeat at a quarter of the TTL they are
// granted; a worker that misses a full TTL of heartbeats is presumed dead
// and its point is re-issued.
const DefaultLeaseTTL = 30 * time.Second

// maxTick caps the manager's tick: TTL/8, the idle workers' poll hint and
// sweepd's expired-lease scan period.
const maxTick = 500 * time.Millisecond

// pointState is the authoritative per-hash state. A hash is global: jobs
// submitting the same spec share one state, one execution, one result.
// Only Manager.apply changes status, worker and record; whether a job was
// served the result from the cache is the job member's, not the hash's.
type pointState struct {
	id        string // first-submitted point id (display)
	hash      string
	spec      []byte
	maxCycles uint64
	faulty    bool

	status   PointStatus
	worker   string    // current lease holder (leased) or completer (done/failed)
	deadline time.Time // lease deadline (leased)
	leases   int       // leases issued, re-issues included
	record   *runner.Record

	// Latest mid-run checkpoints shipped by heartbeats (basename → file
	// bytes, per-file capture cycle). In-memory only — see the ledger
	// docs for why images aren't persisted. Cleared on terminal state.
	ckpts      map[string][]byte
	ckptCycles map[string]uint64

	// Trace linkage: the submit-span context of the job that registered
	// this point, which its spans attach under (taken from the "point"
	// record that registered it, so a restarted sweepd keeps the linkage),
	// and the current lease's span ID — the parent the lease response
	// advertises to the worker and the anchor for expiry/takeover spans.
	trace     obs.SpanContext
	leaseSpan string
}

// ckptCycle returns the newest capture cycle among the point's stored
// checkpoints (0 when none).
func (p *pointState) ckptCycle() uint64 {
	var max uint64
	for _, c := range p.ckptCycles {
		if c > max {
			max = c
		}
	}
	return max
}

// state is the point's state as job member mem sees it.
func (p *pointState) state(mem jobMember) PointState {
	ps := PointState{
		ID:     mem.id,
		Hash:   p.hash,
		Status: p.status,
		Worker: p.worker,
		Leases: p.leases,
		Cached: mem.cached,
	}
	if p.record != nil {
		ps.Attempts = p.record.Attempts
		if p.status == PointFailed {
			ps.Class = string(p.record.Class)
			ps.Error = p.record.Error
		}
	}
	return ps
}

// jobState tracks one submitted grid: its (id, hash) members in submission
// order and its event log.
type jobState struct {
	id     string
	points []jobMember
	events []Event
	trace  obs.SpanContext // the job's submit-span context
}

// jobMember is one point of a job. cached marks a member served from the
// result cache: its hash was already done when the member's "point" record
// registered it (journaled, so replay restores the mark), or when a rejoin
// of the job found it done (in memory only: a rejoin writes no record).
type jobMember struct {
	id     string
	hash   string
	cached bool
}

// sameMembers reports whether a submitted grid matches a job's existing
// membership (same ids, same hashes, same order) — the test for treating
// a repeated submit as an idempotent retry.
func sameMembers(members []jobMember, points []JobPoint) bool {
	if len(members) != len(points) {
		return false
	}
	for i := range points {
		if members[i].id != points[i].ID || members[i].hash != points[i].Hash() {
			return false
		}
	}
	return true
}

// Metrics are the manager's cumulative robustness counters, exposed on
// sweepd's /metrics page.
type Metrics struct {
	Jobs             uint64
	PointsRegistered uint64
	LeasesIssued     uint64
	LeasesRenewed    uint64
	LeasesExpired    uint64
	ReportsAccepted  uint64
	ReportsDuplicate uint64
	CacheHits        uint64
	CacheMisses      uint64
	ReplayWarnings   uint64
	LedgerErrors     uint64

	// Checkpoint migration counters.
	Takeovers         uint64 // leases granted with shipped checkpoints (resume, not restart)
	CheckpointsStored uint64 // checkpoint files accepted from heartbeats
	CheckpointBytes   uint64 // cumulative bytes of accepted checkpoint files
	CheckpointRejects uint64 // shipped files rejected (corrupt, stale, or lease lost)
}

// Manager is the sweep service's brain: the pending → leased → done|failed
// state machine over every known point, durably backed by the ledger. The
// point table is also the result cache: points are never forgotten, so a
// hash already done is served from its record instead of run again. All
// methods are safe for concurrent use.
type Manager struct {
	mu     sync.Mutex
	now    func() time.Time
	ttl    time.Duration
	tick   time.Duration   // min(ttl/8, maxTick), at least 1ms: idle poll and expiry scan period
	ledger *runner.Journal // the ledger's durable appender; nil = in-memory
	log    *slog.Logger    // nil = no logs
	spans  *obs.SpanLog    // nil-safe: tracing off still propagates contexts

	points  map[string]*pointState // by hash
	pending []string               // FIFO of pending hashes
	jobs    map[string]*jobState
	jobSeq  int
	metrics Metrics

	change chan struct{} // closed+replaced on every transition (broadcast)
}

// ManagerOptions configures NewManager.
type ManagerOptions struct {
	// LedgerPath is the durable ledger file; replayed on open. Empty runs
	// the manager in-memory only (tests).
	LedgerPath string
	// LeaseTTL is the lease deadline horizon (0 = DefaultLeaseTTL). The
	// workers' heartbeat and the manager's tick derive from it.
	LeaseTTL time.Duration
	// Now overrides the clock (tests); nil = time.Now.
	Now func() time.Time
	// Logger, when non-nil, logs state transitions with the stable obs
	// keys (job, spec_hash, worker, lease), ledger replay warnings and
	// ledger append failures.
	Logger *slog.Logger
	// Spans, when non-nil, records the server-side half of every job's
	// span tree (submit, lease, expiry, takeover, report, merge) to an
	// append-only span log. Timestamps come from the manager clock, so
	// fake-clock tests produce deterministic span times.
	Spans *obs.SpanLog
}

// NewManager opens (and replays) the ledger and returns a ready manager.
func NewManager(opt ManagerOptions) (*Manager, error) {
	m := &Manager{
		now:    opt.Now,
		ttl:    opt.LeaseTTL,
		log:    opt.Logger,
		spans:  opt.Spans,
		points: make(map[string]*pointState),
		jobs:   make(map[string]*jobState),
		change: make(chan struct{}),
	}
	if m.now == nil {
		m.now = time.Now
	}
	if m.ttl <= 0 {
		m.ttl = DefaultLeaseTTL
	}
	m.tick = max(min(m.ttl/8, maxTick), time.Millisecond)
	if opt.LedgerPath != "" {
		warn := func(format string, args ...any) {
			m.metrics.ReplayWarnings++
			if m.log != nil {
				m.log.Warn(fmt.Sprintf(format, args...))
			}
		}
		if err := ReplayLedger(opt.LedgerPath, warn, m.apply); err != nil {
			return nil, err
		}
		led, err := runner.OpenJournal(opt.LedgerPath)
		if err != nil {
			return nil, err
		}
		m.ledger = led
	}
	return m, nil
}

// Close closes the ledger.
func (m *Manager) Close() error {
	if m.ledger == nil {
		return nil
	}
	return m.ledger.Close()
}

// apply is the one transition function of the point table, the pending
// queue and job membership. The live methods decide, then commit a record,
// which applies it; NewManager applies the replayed ledger through it, so
// a reopened manager rebuilds the state the live calls built. Records that
// no longer fit the state are dropped: a lease of a terminal point is
// stale, and the first terminal record for a hash wins. apply counts only
// what a replay must restore (Jobs, PointsRegistered, Takeovers); the live
// methods count the rest. Caller holds the lock (or is replaying, before
// the manager is shared).
func (m *Manager) apply(r *LedgerRecord) {
	p := m.points[r.Hash]
	switch r.Type {
	case "point":
		cached := p != nil && p.status == PointDone
		if p == nil {
			p = &pointState{id: r.ID, hash: r.Hash, spec: r.Spec, maxCycles: r.MaxCycles, faulty: r.Faulty, status: PointPending}
			if r.Trace != nil {
				p.trace = *r.Trace
			}
			m.points[r.Hash] = p
			m.pending = append(m.pending, r.Hash)
			m.metrics.PointsRegistered++
		} else if p.status == PointFailed {
			// A new job's submit gives a failed hash a fresh chance: back
			// to pending, its failure record dropped.
			p.status, p.worker, p.record = PointPending, "", nil
			m.pending = append(m.pending, r.Hash)
		}
		if r.Job == "" {
			return
		}
		j := m.jobs[r.Job]
		if j == nil {
			j = &jobState{id: r.Job}
			if r.Trace != nil {
				j.trace = *r.Trace
			}
			m.jobs[r.Job] = j
			m.jobSeq++
			m.metrics.Jobs++
		}
		j.points = append(j.points, jobMember{id: r.ID, hash: r.Hash, cached: cached})
	case "lease":
		if p == nil || p.status.Terminal() {
			return
		}
		if p.status == PointPending {
			m.pending = slices.DeleteFunc(m.pending, func(h string) bool { return h == r.Hash })
		}
		p.status, p.worker, p.deadline = PointLeased, r.Worker, time.UnixMilli(r.DeadlineUnix)
		p.leases++
	case "resume":
		// The checkpoint images are not journaled, so this restores only
		// the counter the chaos harness and /metrics read.
		m.metrics.Takeovers++
	case "expire":
		// Never journaled: expiry is the clock's, and a reopened manager
		// expires the restored leases again from their deadlines.
		if p == nil || p.status != PointLeased {
			return
		}
		p.status, p.worker = PointPending, ""
		m.pending = append(m.pending, r.Hash)
	case "done", "failed":
		if p == nil || p.status == PointDone || (p.status == PointFailed && r.Type == "failed") {
			return
		}
		// A done after a failed is a retry that succeeded: it replaces
		// the failure.
		if p.status == PointPending {
			m.pending = slices.DeleteFunc(m.pending, func(h string) bool { return h == r.Hash })
		}
		p.status = PointFailed
		if r.Type == "done" {
			p.status = PointDone
		}
		p.worker, p.record = r.Worker, r.Record
		// Retained checkpoints are dead weight now, and a resubmit of a
		// failed spec must restart clean, not resume the failed run.
		p.ckpts, p.ckptCycles = nil, nil
	}
}

// commit journals r and applies it: the live half of every journaled
// transition. A nil ledger (in-memory mode) journals nothing, and an
// append failure is counted and logged but still applied: an unwritable
// ledger degrades durability, not availability.
func (m *Manager) commit(r *LedgerRecord) {
	if m.ledger != nil {
		if err := m.ledger.Append(r); err != nil {
			m.metrics.LedgerErrors++
			if m.log != nil {
				m.log.Warn("ledger append failed", "type", r.Type, obs.KeySpecHash, r.Hash, "error", err.Error())
			}
		}
	}
	m.apply(r)
}

// span records an instant span at the manager clock's now under parent,
// returning the new span's context. Nil-safe end to end: with no span
// log configured it still mints IDs, so lease responses always carry a
// usable context for workers that do trace.
func (m *Manager) span(parent obs.SpanContext, name string, attrs map[string]string) obs.SpanContext {
	return m.spans.Instant(parent, name, m.now(), attrs)
}

// broadcast wakes every watcher blocked on a change.
func (m *Manager) broadcast() {
	close(m.change)
	m.change = make(chan struct{})
}

// emit appends a transition event to every job containing hash.
func (m *Manager) emit(p *pointState, errMsg string) {
	for _, j := range m.jobs {
		for _, mem := range j.points {
			if mem.hash == p.hash {
				j.events = append(j.events, Event{
					Seq:    len(j.events),
					JobID:  j.id,
					ID:     mem.id,
					Hash:   p.hash,
					Status: p.status,
					Worker: p.worker,
					Cached: mem.cached,
					Error:  errMsg,
				})
				break
			}
		}
	}
	m.broadcast()
}

// Submit registers a grid as a job. Points whose hash is already done
// (in this server's lifetime or on the replayed ledger) are cache hits
// and complete instantly; failed hashes get a fresh chance (reset to
// pending); pending/leased hashes are joined, not duplicated. Submitting
// an existing job's grid again rejoins it: its members already done count
// as cached, since this submission does not run them.
func (m *Manager) Submit(req *SubmitRequest) (*JobStatus, error) {
	if len(req.Points) == 0 {
		return nil, errors.New("sweepsvc: submit: no points")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := req.JobID
	if id == "" {
		id = fmt.Sprintf("job-%d", m.jobSeq+1)
	}
	if j, exists := m.jobs[id]; exists {
		// Submit is idempotent: the client retries on transport faults, so a
		// duplicated submit of the identical grid must return the job's
		// current status, not an error. A *different* grid under the same
		// name is a real conflict.
		if !sameMembers(j.points, req.Points) {
			return nil, fmt.Errorf("sweepsvc: submit: job %q already exists with a different point set", id)
		}
		// A rejoin writes no record, so this mark is in memory only.
		for i, mem := range j.points {
			if m.points[mem.hash].status == PointDone {
				j.points[i].cached = true
			}
		}
		return m.jobStatusLocked(j, false), nil
	}
	// Root the job's span tree: under the client's trace context when it
	// sent one, else a fresh trace so server-side spans still correlate.
	parent := obs.SpanContext{}
	if req.Trace != nil {
		parent = *req.Trace
	}
	trace := m.span(parent, "submit", map[string]string{obs.KeyJob: id})
	if m.log != nil {
		m.log.Info("job submitted", obs.KeyJob, id, "points", len(req.Points), obs.KeyTrace, trace.Trace)
	}
	for i := range req.Points {
		jp := &req.Points[i]
		hash := jp.Hash()
		switch p := m.points[hash]; {
		case p == nil, p.status == PointFailed:
			// A new spec, or a new submission re-trying a failed one.
			m.metrics.CacheMisses++
		case p.status == PointDone:
			// Content-addressed cache hit: same spec, same result.
			m.metrics.CacheHits++
			m.span(trace, "cache-hit", map[string]string{obs.KeyPoint: jp.ID, obs.KeySpecHash: hash})
		default:
			// pending/leased: join the in-flight execution (neither a cache
			// hit nor a miss — the work is shared, not repeated).
		}
		m.commit(&LedgerRecord{Type: "point", Job: id, ID: jp.ID, Hash: hash, Spec: jp.Spec, MaxCycles: jp.MaxCycles, Faulty: jp.Faulty, Trace: &trace, Provenance: req.Provenance})
		m.emit(m.points[hash], "")
	}
	return m.jobStatusLocked(m.jobs[id], false), nil
}

// Lease hands the worker one pending point, or a response with no point
// when none is pending. Idempotent per worker: if the worker already holds
// a live lease (its previous request landed but the response was lost),
// the same lease is returned instead of a second point. A non-empty job
// restricts the lease to that job's points: a local sweep's workers run
// only the grid they were started for, never another grid's unfinished
// points left on the same ledger.
func (m *Manager) Lease(worker, job string) *LeaseResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	m.expireLocked(now)
	in := func(string) bool { return true }
	if job != "" {
		member := make(map[string]bool)
		if j := m.jobs[job]; j != nil {
			for _, mem := range j.points {
				member[mem.hash] = true
			}
		}
		in = func(hash string) bool { return member[hash] }
	}
	for _, p := range m.points {
		if p.status == PointLeased && p.worker == worker && in(p.hash) {
			return m.leaseResponse(p)
		}
	}
	next := slices.IndexFunc(m.pending, in)
	if next < 0 {
		return &LeaseResponse{RetryAfterMS: m.tick.Milliseconds()}
	}
	hash := m.pending[next]
	m.commit(&LedgerRecord{Type: "lease", Hash: hash, Worker: worker, DeadlineUnix: now.Add(m.ttl).UnixMilli()})
	p := m.points[hash]
	m.metrics.LeasesIssued++
	leaseSC := m.span(p.trace, "lease", map[string]string{
		obs.KeyPoint: p.id, obs.KeySpecHash: hash, obs.KeyWorker: worker,
	})
	p.leaseSpan = leaseSC.Span
	if m.log != nil {
		m.log.Info("lease issued", obs.KeyPoint, p.id, obs.KeySpecHash, hash,
			obs.KeyWorker, worker, obs.KeyLease, p.leaseSpan, "leases", p.leases)
	}
	if len(p.ckpts) > 0 {
		// The previous holder shipped mid-run checkpoints before its lease
		// lapsed: this grant is a takeover that resumes, not restarts.
		m.commit(&LedgerRecord{Type: "resume", ID: p.id, Hash: hash, Worker: worker, FromCycle: p.ckptCycle()})
		m.span(leaseSC, "takeover", map[string]string{
			obs.KeyPoint: p.id, obs.KeyWorker: worker,
			obs.KeyCycle: fmt.Sprintf("%d", p.ckptCycle()),
		})
		if m.log != nil {
			m.log.Warn("lease taken over", obs.KeyPoint, p.id, obs.KeySpecHash, hash,
				obs.KeyWorker, worker, obs.KeyLease, p.leaseSpan, obs.KeyCycle, p.ckptCycle())
		}
	}
	m.emit(p, "")
	return m.leaseResponse(p)
}

func (m *Manager) leaseResponse(p *pointState) *LeaseResponse {
	resp := &LeaseResponse{
		Point: &JobPoint{
			ID:        p.id,
			Spec:      append([]byte(nil), p.spec...),
			MaxCycles: p.maxCycles,
			Faulty:    p.faulty,
		},
		DeadlineUnix: p.deadline.UnixMilli(),
		TTLMS:        m.ttl.Milliseconds(),
	}
	if len(p.ckpts) > 0 {
		resp.Checkpoints = make(map[string][]byte, len(p.ckpts))
		for name, img := range p.ckpts {
			resp.Checkpoints[name] = append([]byte(nil), img...)
		}
		resp.CheckpointCycle = p.ckptCycle()
	}
	if p.trace.Valid() && p.leaseSpan != "" {
		// The worker parents its run span here, connecting its span log
		// to the job's tree.
		resp.Trace = &obs.SpanContext{Trace: p.trace.Trace, Span: p.leaseSpan}
	}
	return resp
}

// Renew extends the worker's lease on hash and retains any mid-run
// checkpoint files the heartbeat shipped. Renewals are in-memory only
// (heartbeats would grow the ledger without bound); after a sweepd restart
// the replayed deadline is the one from lease issuance, which at worst
// re-issues a still-running point — deduped at completion.
//
// Shipped checkpoints are verified (integrity hash, monotone capture
// cycle) before replacing the stored set; corrupt or stale files are
// counted and dropped, never stored — a takeover must only ever see
// checkpoints that will load.
func (m *Manager) Renew(worker, hash string, ckpts map[string][]byte) (*RenewResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
	p := m.points[hash]
	if p == nil || p.status != PointLeased || p.worker != worker {
		if len(ckpts) > 0 {
			m.metrics.CheckpointRejects += uint64(len(ckpts))
		}
		return nil, ErrLeaseLost
	}
	for name, img := range ckpts {
		meta, _, err := checkpoint.Decode(img)
		if err != nil {
			m.metrics.CheckpointRejects++
			if m.log != nil {
				m.log.Warn("checkpoint rejected", obs.KeyPoint, p.id, obs.KeySpecHash, hash,
					obs.KeyWorker, worker, "file", name, "error", err.Error())
			}
			continue
		}
		if p.ckptCycles[name] >= meta.Cycle && p.ckptCycles[name] != 0 {
			// A zombie heartbeat replaying an older capture must not roll
			// the stored state back.
			m.metrics.CheckpointRejects++
			continue
		}
		if p.ckpts == nil {
			p.ckpts = make(map[string][]byte)
			p.ckptCycles = make(map[string]uint64)
		}
		p.ckpts[name] = append([]byte(nil), img...)
		p.ckptCycles[name] = meta.Cycle
		m.metrics.CheckpointsStored++
		m.metrics.CheckpointBytes += uint64(len(img))
	}
	p.deadline = m.now().Add(m.ttl)
	m.metrics.LeasesRenewed++
	return &RenewResponse{DeadlineUnix: p.deadline.UnixMilli(), TTLMS: m.ttl.Milliseconds()}, nil
}

// Report records a point's terminal record, idempotently: the first
// terminal report for a hash wins and is journaled; duplicates (a second
// worker that raced an expired lease, a retried RPC) are acknowledged and
// dropped. The report is accepted even from a worker whose lease expired —
// the result of a deterministic simulation is the result. tr, when valid,
// is the worker's run-span context, so the server-side report span lands
// under the run that produced the record.
func (m *Manager) Report(worker, hash string, rec *runner.Record, tr *obs.SpanContext) (*ReportResponse, error) {
	if rec == nil {
		return nil, errors.New("sweepsvc: report: no record")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.points[hash]
	if p == nil {
		return nil, fmt.Errorf("sweepsvc: report: unknown point %s", hash)
	}
	if p.status.Terminal() {
		m.metrics.ReportsDuplicate++
		return &ReportResponse{Accepted: true, Duplicate: true}, nil
	}
	typ := "failed"
	if rec.Status == runner.StatusOK || rec.Status == runner.StatusRecovered {
		typ = "done"
	}
	m.commit(&LedgerRecord{Type: typ, Hash: hash, Worker: worker, Record: rec})
	m.metrics.ReportsAccepted++
	parent := obs.SpanContext{Trace: p.trace.Trace, Span: p.leaseSpan}
	if tr != nil && tr.Valid() {
		parent = *tr
	}
	m.span(parent, "report", map[string]string{
		obs.KeyPoint: p.id, obs.KeySpecHash: hash, obs.KeyWorker: worker,
		"status": string(p.status),
	})
	if m.log != nil {
		lvl := slog.LevelInfo
		if p.status == PointFailed {
			lvl = slog.LevelError
		}
		m.log.Log(context.Background(), lvl, "report accepted",
			obs.KeyPoint, p.id, obs.KeySpecHash, hash, obs.KeyWorker, worker,
			"status", string(p.status), "error", rec.Error)
	}
	m.emit(p, rec.Error)
	return &ReportResponse{Accepted: true}, nil
}

// ExpireLeases re-queues every lease whose deadline has passed and returns
// how many were re-issued to pending. Called by Server.ExpireLoop and
// before every lease grant and renewal.
func (m *Manager) ExpireLeases() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.expireLocked(m.now())
}

func (m *Manager) expireLocked(now time.Time) int {
	n := 0
	for _, p := range m.points {
		if p.status == PointLeased && now.After(p.deadline) {
			if m.log != nil {
				m.log.Warn("lease expired", obs.KeyPoint, p.id, obs.KeySpecHash, p.hash,
					obs.KeyWorker, p.worker, obs.KeyLease, p.leaseSpan)
			}
			m.span(obs.SpanContext{Trace: p.trace.Trace, Span: p.leaseSpan}, "expiry",
				map[string]string{obs.KeyPoint: p.id, obs.KeyWorker: p.worker})
			m.apply(&LedgerRecord{Type: "expire", Hash: p.hash})
			m.metrics.LeasesExpired++
			n++
			m.emit(p, "")
		}
	}
	return n
}

// JobStatus returns the job's summary (withPoints includes per-point
// states).
func (m *Manager) JobStatus(id string, withPoints bool) (*JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("sweepsvc: unknown job %q", id)
	}
	return m.jobStatusLocked(j, withPoints), nil
}

func (m *Manager) jobStatusLocked(j *jobState, withPoints bool) *JobStatus {
	st := &JobStatus{JobID: j.id, Total: len(j.points)}
	for _, mem := range j.points {
		p := m.points[mem.hash]
		if p == nil {
			st.Pending++
			continue
		}
		switch p.status {
		case PointPending:
			st.Pending++
		case PointLeased:
			st.Leased++
		case PointDone:
			st.Done++
			if mem.cached {
				st.Cached++
			}
		case PointFailed:
			st.Failed++
		}
		if withPoints {
			st.Points = append(st.Points, p.state(mem))
		}
	}
	st.Complete = st.Done+st.Failed == st.Total
	return st
}

// Events returns the job's event log from seq on (a copy).
func (m *Manager) Events(id string, from int) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("sweepsvc: unknown job %q", id)
	}
	if from < 0 {
		from = 0
	}
	if from >= len(j.events) {
		return nil, nil
	}
	return append([]Event(nil), j.events[from:]...), nil
}

// WaitChange blocks until the next state transition or ctx ends.
func (m *Manager) WaitChange(ctx context.Context) {
	m.mu.Lock()
	ch := m.change
	m.mu.Unlock()
	select {
	case <-ch:
	case <-ctx.Done():
	}
}

// Merged returns the job's canonical merged results: points sorted by ID,
// result bytes verbatim from the terminal records. This is the byte
// surface the chaos harness compares against a serial local run.
func (m *Manager) Merged(id string) (*MergedResults, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("sweepsvc: unknown job %q", id)
	}
	out := &MergedResults{JobID: j.id}
	for _, mem := range j.points {
		p := m.points[mem.hash]
		mp := MergedPoint{ID: mem.id, Hash: mem.hash, Status: PointPending}
		if p != nil {
			mp.Status = p.status
			if p.record != nil {
				mp.Result = append(json.RawMessage(nil), p.record.Result...)
				// Surface who produced the point and how it went on the
				// API response; WriteMerged strips both from the
				// canonical bytes.
				mp.Provenance = p.record.Provenance
				rec := *p.record
				rec.Result, rec.Provenance = nil, nil
				mp.Record = &rec
			}
		}
		out.Points = append(out.Points, mp)
	}
	sort.Slice(out.Points, func(a, b int) bool { return out.Points[a].ID < out.Points[b].ID })
	m.span(j.trace, "merge", map[string]string{obs.KeyJob: j.id})
	return out, nil
}

// MetricsSnapshot returns the cumulative counters.
func (m *Manager) MetricsSnapshot() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics
}
