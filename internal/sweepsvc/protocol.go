// Package sweepsvc is the distributed sweep service: a long-running job
// server (cmd/sweepd) that hands a sweep's run points to remote workers
// (cmd/sweepworker) over an HTTP/JSON API, with robustness as the headline
// property.
//
// Every point moves through a pending → leased(worker, deadline) →
// done|failed state machine recorded in an append-only, fsync-per-record
// JSONL ledger (a multi-worker extension of internal/runner's journal):
// sweepd restarts replay the ledger, expired leases are
// re-issued to other workers, duplicate completions are deduped by the
// runner spec hash, and the point table keyed by that hash is the result
// cache: no point is ever dropped, so a repeated point is served from its
// done record instantly across jobs and sweeps. Workers run points
// under internal/runner's supervision (deadlines, panic isolation,
// classified retries with jittered backoff) and report results
// idempotently, so the merged output of a chaotic distributed sweep is
// bit-identical to a serial local run — asserted by the in-repo chaos
// harness (chaos_test.go, scripts/chaos_smoke.sh).
//
// The lease TTL (ManagerOptions.LeaseTTL) is the service's one timing
// setting. Workers heartbeat at a quarter of the TTL each lease and
// renewal carries; the manager's tick, min(TTL/8, 500ms), is both the
// poll hint handed to idle workers and Server.ExpireLoop's scan period.
// Client retries, worker back-offs and runner retry backoff are fixed
// constants.
package sweepsvc

import (
	"encoding/json"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// JobPoint is one run point in a job submission. Spec is the point's
// canonical JSON identity — the same bytes cmd/sweep hashes for its local
// journal — so the service's ledger, cache and dedupe all key on the
// identical runner.SpecHash the local path uses.
type JobPoint struct {
	ID        string          `json:"id"`
	Spec      json.RawMessage `json:"spec"`
	MaxCycles uint64          `json:"max_cycles,omitempty"`
	Faulty    bool            `json:"faulty,omitempty"`
}

// Hash returns the point's content address.
func (p *JobPoint) Hash() string { return runner.SpecHash(p.Spec) }

// PointStatus is a point's position in the lease state machine.
type PointStatus string

const (
	PointPending PointStatus = "pending"
	PointLeased  PointStatus = "leased"
	PointDone    PointStatus = "done"
	PointFailed  PointStatus = "failed"
)

// Terminal reports whether the status ends the state machine.
func (s PointStatus) Terminal() bool { return s == PointDone || s == PointFailed }

// PointState is the externally visible state of one point.
type PointState struct {
	ID       string      `json:"id"`
	Hash     string      `json:"hash"`
	Status   PointStatus `json:"status"`
	Worker   string      `json:"worker,omitempty"`   // current/last lease holder
	Leases   int         `json:"leases,omitempty"`   // leases issued (re-issues included)
	Cached   bool        `json:"cached,omitempty"`   // served from the result cache
	Class    string      `json:"class,omitempty"`    // failure classification (failed)
	Error    string      `json:"error,omitempty"`    // failure message (failed)
	Attempts int         `json:"attempts,omitempty"` // worker-side attempts (done/failed)
}

// SubmitRequest submits a grid of points as one job. JobID names the job;
// empty lets the server assign one. Points sharing a spec hash with prior
// work (this job, other jobs, or earlier sweeps replayed from the ledger)
// join that work instead of duplicating it. Submit is idempotent: repeating
// a named job's identical grid (a retried or duplicated RPC) returns the
// job's current status rather than an error.
type SubmitRequest struct {
	JobID  string     `json:"job_id,omitempty"`
	Points []JobPoint `json:"points"`

	// Trace is the submitting client's trace context: the job's spans on
	// every process (sweepd lease/expiry/takeover, worker runs) attach
	// under it, so one sweep stitches into one tree. Absent on old
	// clients; sweepd then roots a fresh trace.
	Trace *obs.SpanContext `json:"trace,omitempty"`
	// Provenance identifies the submitting client (binary, host, flags);
	// recorded on the ledger's point registrations.
	Provenance *obs.Provenance `json:"provenance,omitempty"`
}

// JobStatus summarizes a job.
type JobStatus struct {
	JobID    string       `json:"job_id"`
	Total    int          `json:"total"`
	Pending  int          `json:"pending"`
	Leased   int          `json:"leased"`
	Done     int          `json:"done"`
	Failed   int          `json:"failed"`
	Cached   int          `json:"cached"` // of Done, served from the result cache
	Complete bool         `json:"complete"`
	Points   []PointState `json:"points,omitempty"`
}

// Event is one per-point transition, streamed to job watchers. Seq orders
// events within one sweepd process; after a sweepd restart the log is
// rebuilt from ledger replay, so watchers reconcile by (hash, status), not
// by seq alone.
type Event struct {
	Seq    int         `json:"seq"`
	JobID  string      `json:"job_id"`
	ID     string      `json:"id"`
	Hash   string      `json:"hash"`
	Status PointStatus `json:"status"`
	Worker string      `json:"worker,omitempty"`
	Cached bool        `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// LeaseRequest asks for one point to run. Lease is idempotent per worker:
// a worker that already holds a live lease (a retried request whose first
// send actually landed) gets that same lease back.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// Job, when set, restricts the lease to that job's points (a local
	// sweep's workers serve only their own grid).
	Job string `json:"job,omitempty"`
}

// LeaseResponse carries the leased point, or no point plus a poll hint
// when nothing is pending. TTLMS is the lease TTL sweepd granted, as a
// duration rather than a deadline so that no host clock need agree with
// sweepd's: the worker heartbeats at a quarter of it.
//
// Checkpoints, when present, are the point's latest mid-run checkpoint
// files (basename → verbatim file bytes) shipped by the previous lease
// holder's heartbeats before it died. The new worker installs them under
// its own checkpoint directory so the run resumes from CheckpointCycle
// instead of restarting at cycle zero — preempted points migrate between
// workers mid-run.
type LeaseResponse struct {
	Point           *JobPoint         `json:"point,omitempty"`
	DeadlineUnix    int64             `json:"deadline_unix_ms,omitempty"`
	TTLMS           int64             `json:"ttl_ms,omitempty"`
	RetryAfterMS    int64             `json:"retry_after_ms,omitempty"`
	Checkpoints     map[string][]byte `json:"checkpoints,omitempty"`
	CheckpointCycle uint64            `json:"checkpoint_cycle,omitempty"`

	// Trace is the lease span's context: the worker parents its run span
	// (and the run's heartbeat/checkpoint-ship children) under it, which
	// is what makes the job's span tree connect across processes.
	Trace *obs.SpanContext `json:"trace,omitempty"`
}

// RenewRequest is a worker heartbeat: it extends the lease on hash and
// piggybacks the worker's latest self-monitoring sample for the server's
// /metrics page.
//
// Checkpoints carries the point's checkpoint files whose capture cycle
// advanced since the last successful renewal (basename → verbatim file
// bytes). sweepd validates and retains the newest set in memory; if this
// worker's lease later expires, the next lease holder receives them and
// resumes mid-run.
type RenewRequest struct {
	Worker      string                `json:"worker"`
	Hash        string                `json:"hash"`
	Self        *telemetry.SelfSample `json:"self,omitempty"`
	Checkpoints map[string][]byte     `json:"checkpoints,omitempty"`
}

// RenewResponse returns the extended deadline and the TTL it was
// extended by, from which the worker times its next heartbeat.
type RenewResponse struct {
	DeadlineUnix int64 `json:"deadline_unix_ms"`
	TTLMS        int64 `json:"ttl_ms"`
}

// ReportRequest reports a point's terminal record. Reports are idempotent
// by hash: the first terminal record wins, duplicates are acknowledged and
// discarded (simulations are deterministic, so duplicates are identical).
type ReportRequest struct {
	Worker string         `json:"worker"`
	Hash   string         `json:"hash"`
	Record *runner.Record `json:"record"`

	// Trace is the worker's run-span context, so sweepd's report span
	// attaches under the run that produced the record.
	Trace *obs.SpanContext `json:"trace,omitempty"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// MergedPoint is one point of a job's merged results: the canonical output
// the chaos harness compares bit-for-bit against a serial local run. The
// Result bytes are the runner.Record's marshaled result, verbatim.
//
// Provenance (which binary/worker/trace produced each point) and Record
// (the terminal record's status, attempts, failure and wall time, without
// the Result and Provenance carried above) ride the /results API response
// but are stripped — like JobID — from the canonical merged bytes
// WriteMerged emits, because those must stay byte-identical between a
// serial local run and a chaotic distributed one.
type MergedPoint struct {
	ID     string          `json:"id"`
	Hash   string          `json:"hash"`
	Status PointStatus     `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`

	Provenance *obs.Provenance `json:"provenance,omitempty"`
	Record     *runner.Record  `json:"record,omitempty"`
}

// MergedResults is a job's merged output, points sorted by ID.
type MergedResults struct {
	JobID  string        `json:"job_id,omitempty"`
	Points []MergedPoint `json:"points"`
}

// MergedFromRecords maps local runner records onto canonical merged
// points — the local half of the "serial local run == distributed run"
// byte-identity the chaos harness asserts.
func MergedFromRecords(recs []*runner.Record) []MergedPoint {
	pts := make([]MergedPoint, 0, len(recs))
	for _, rec := range recs {
		mp := MergedPoint{ID: rec.ID, Hash: rec.SpecHash, Status: PointPending}
		switch rec.Status {
		case runner.StatusOK, runner.StatusRecovered:
			mp.Status = PointDone
		case runner.StatusFailed:
			mp.Status = PointFailed
		}
		mp.Result = rec.Result
		mp.Provenance = rec.Provenance
		pts = append(pts, mp)
	}
	return pts
}
