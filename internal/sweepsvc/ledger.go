package sweepsvc

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/runner"
)

// LedgerRecord is one line of the sweep-service ledger: the multi-worker
// extension of internal/runner's journal. Where the journal records only
// terminal outcomes, the ledger also records point registration and lease
// issuance, so a restarted sweepd can rebuild the whole pending → leased →
// done|failed state machine by replaying it in order. Replay and the live
// calls share one transition function, Manager.apply: a live call appends
// its record and applies it, and replay applies the same records. The
// first "done" for a hash wins; a "point" record of a new job re-queues a
// failed hash, and a later "done" replaces a "failed" (a retry that
// succeeded).
//
// Record types:
//
//   - "point":  a job member was registered (Job, ID, Hash, Spec, MaxCycles,
//     Faulty, and the submitting job's Trace). A member whose hash is
//     already done is a cache hit, cached for that job only.
//   - "lease":  a lease was issued or re-issued (Hash, Worker, DeadlineUnix)
//   - "resume": a lease was issued WITH shipped mid-run checkpoints — the
//     new worker resumes the point from FromCycle instead of restarting
//     (Hash, Worker, FromCycle). Always paired with a "lease" record.
//   - "done":   a point completed (Hash, Worker, Record)
//   - "failed": a point failed terminally on its worker (Hash, Worker, Record)
//
// Lease expiry is applied as an "expire" record that is never written: it
// is the clock's, and a restarted sweepd expires the replayed leases from
// their deadlines. A rejoin (the same job submitting the same grid again)
// writes nothing either, so the cached mark it gives the job's members
// already done is in memory only.
//
// Lease renewals are deliberately NOT persisted: heartbeats would grow the
// ledger without bound, and the worst a restart can do without them is
// re-issue a still-running point — which the idempotent completion path
// dedupes. Execution is at-least-once; recording is exactly-once. The
// checkpoint images themselves are likewise NOT persisted (they arrive on
// every heartbeat and would grow the ledger without bound); only the
// "resume" takeover fact is durable, so the chaos harness can assert
// resume-not-restart from the ledger alone.
type LedgerRecord struct {
	Type   string `json:"type"`
	Job    string `json:"job,omitempty"`
	ID     string `json:"id,omitempty"`
	Hash   string `json:"hash"`
	Worker string `json:"worker,omitempty"`

	// Lease fields.
	DeadlineUnix int64 `json:"deadline_unix_ms,omitempty"`

	// Resume fields: the capture cycle the takeover resumes from.
	FromCycle uint64 `json:"from_cycle,omitempty"`

	// Point registration fields.
	Spec      json.RawMessage `json:"spec,omitempty"`
	MaxCycles uint64          `json:"max_cycles,omitempty"`
	Faulty    bool            `json:"faulty,omitempty"`

	// Terminal fields.
	Record *runner.Record `json:"record,omitempty"`

	// Observability fields, on "point" records: the submitting job's trace
	// context (the job's trace, and the trace of a point this record
	// registers, so a restarted sweepd keeps new leases linked to the
	// original trace) and the submitting client's provenance. Appended last —
	// tooling greps for adjacent `"type":...,"hash":...` on terminal
	// records, so field order above must not shift.
	Trace      *obs.SpanContext `json:"trace,omitempty"`
	Provenance *obs.Provenance  `json:"provenance,omitempty"`
}

// ReplayLedger streams the records at path into apply in append order. A
// missing file is an empty ledger. Torn or corrupt lines are skipped with
// a warning (obs.ScanJSONL semantics): a crash mid-append must never
// make the ledger unreadable.
func ReplayLedger(path string, warn func(format string, args ...any), apply func(*LedgerRecord)) error {
	err := obs.ScanJSONL(path, warn, func(line []byte) bool {
		var r LedgerRecord
		if err := json.Unmarshal(line, &r); err != nil || r.Type == "" || r.Hash == "" {
			return false
		}
		apply(&r)
		return true
	})
	if err != nil {
		return fmt.Errorf("sweepsvc: ledger: %w", err)
	}
	return nil
}
