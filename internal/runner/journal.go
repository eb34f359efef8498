package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/diag"
	"repro/internal/obs"
)

// Status is the terminal state of one run point.
type Status string

const (
	// StatusOK: the point completed on its first (or only) attempt.
	StatusOK Status = "ok"
	// StatusRecovered: a fault-injected point failed, was retried with the
	// fault profile disabled, and then completed.
	StatusRecovered Status = "recovered_after_fault"
	// StatusFailed: the point failed permanently (non-retryable failure
	// or attempts exhausted).
	StatusFailed Status = "failed"
	// StatusCanceled: the point was aborted mid-run by a hard cancel. Not
	// terminal — a resumed sweep re-runs it.
	StatusCanceled Status = "canceled"
	// StatusSkipped: the point was never dispatched (the pool was canceled
	// first). Skipped points are never journaled.
	StatusSkipped Status = "skipped"
)

// Terminal reports whether a status is a final outcome. Canceled and
// skipped points are incomplete by definition.
func (s Status) Terminal() bool {
	switch s {
	case StatusOK, StatusRecovered, StatusFailed:
		return true
	}
	return false
}

// Record is one journal line: the durable outcome of one run point. The
// Error/Class/Diag triple always describes the *first* failing attempt
// (the root cause — for a recovered_after_fault point that is the faulted
// run whose snapshot the journal must preserve), while Status and Attempts
// describe where the point ended up.
type Record struct {
	ID       string `json:"id"`
	SpecHash string `json:"spec_hash"`
	Status   Status `json:"status"`
	Attempts int    `json:"attempts"`

	Class Class  `json:"class,omitempty"` // first failure's classification
	Error string `json:"error,omitempty"` // first failure's message

	Seconds float64 `json:"seconds"`          // wall-clock across all attempts
	Series  string  `json:"series,omitempty"` // telemetry series path/glob, if any

	Diag *diag.Snapshot `json:"diag,omitempty"` // first failure's machine snapshot

	// Result is the point's marshaled outcome (what Point.Run returned),
	// kept so a resumed sweep can still emit complete merged output.
	Result json.RawMessage `json:"result,omitempty"`

	// Provenance identifies the binary/host/worker that produced this
	// record (stamped by the sweep worker).
	// Pure metadata: merged-output byte identity reads only Result, and
	// resume keys only on SpecHash.
	Provenance *obs.Provenance `json:"provenance,omitempty"`
}

// SpecHash fingerprints a point's spec: a truncated SHA-256 over its
// canonical JSON encoding. The sweep ledger and its result cache key on
// this hash, so changing any field of the spec (scale, fault profile,
// machine knobs) re-runs the point instead of wrongly reusing a stale
// result. The spec must be JSON-marshalable; a spec that is not hashes to
// a sentinel.
func SpecHash(spec any) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Journal is an append-only JSONL file, flushed record-by-record so that a
// crash or kill loses at most the line being written. A pool's journal
// holds Records; the sweep-service ledger appends its own record type
// through the same appender. Safe for concurrent Append from pool workers.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) the journal at path for
// appending: earlier records stay in place and new ones append after
// them.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append writes one record as a JSON line and syncs it to disk before
// returning.
func (j *Journal) Append(r any) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("runner: journal: %w", err)
	}
	// Sync bounds the loss window to the record being written when the
	// whole machine (not just the process) dies mid-sweep.
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
