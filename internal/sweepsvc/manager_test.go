package sweepsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// fakeClock is a deterministic manual clock for lease tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func specOf(id string, x int) json.RawMessage {
	b, _ := json.Marshal(map[string]any{"name": id, "x": x})
	return b
}

func okRecord(id, hash string, result any) *runner.Record {
	b, _ := json.Marshal(result)
	return &runner.Record{ID: id, SpecHash: hash, Status: runner.StatusOK, Attempts: 1, Result: b}
}

// testLogger logs through t.Log.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t testing.TB }

func (w testWriter) Write(b []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(b), "\n"))
	return len(b), nil
}

func newTestManager(t *testing.T, clock *fakeClock, ledger string) *Manager {
	t.Helper()
	m, err := NewManager(ManagerOptions{
		LedgerPath: ledger,
		LeaseTTL:   10 * time.Second,
		Now:        clock.Now,
		Logger:     testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func submitGrid(t *testing.T, m *Manager, job string, n int) *JobStatus {
	t.Helper()
	req := &SubmitRequest{JobID: job}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%d", i)
		req.Points = append(req.Points, JobPoint{ID: id, Spec: specOf(id, i)})
	}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLeaseLifecycle is the table-driven state-machine test: each case
// drives pending → leased → (renew | expire | report) under a manual
// clock and asserts who ends up owning the point.
func TestLeaseLifecycle(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, m *Manager, clock *fakeClock, hash string)
	}{
		{
			// A heartbeating worker keeps its lease past the original TTL.
			name: "renew-extends",
			run: func(t *testing.T, m *Manager, clock *fakeClock, hash string) {
				clock.Advance(8 * time.Second)
				if _, err := m.Renew("w1", hash, nil); err != nil {
					t.Fatalf("renew: %v", err)
				}
				clock.Advance(8 * time.Second) // 16s > TTL, but renewed at 8s
				if n := m.ExpireLeases(); n != 0 {
					t.Fatalf("expired %d leases, want 0 (renewed)", n)
				}
				if lr := m.Lease("w2", ""); lr.Point != nil {
					t.Fatalf("w2 got %s; point should still be leased to w1", lr.Point.ID)
				}
			},
		},
		{
			// A dead worker's lease expires and the point is re-issued.
			name: "expiry-reissues",
			run: func(t *testing.T, m *Manager, clock *fakeClock, hash string) {
				clock.Advance(11 * time.Second)
				if n := m.ExpireLeases(); n != 1 {
					t.Fatalf("expired %d leases, want 1", n)
				}
				lr := m.Lease("w2", "")
				if lr.Point == nil || lr.Point.Hash() != hash {
					t.Fatalf("w2 was not re-issued the expired point")
				}
				st, _ := m.JobStatus("j", true)
				if st.Points[0].Leases != 2 {
					t.Fatalf("leases = %d, want 2 (issue + re-issue)", st.Points[0].Leases)
				}
				// The original holder's renewals are now rejected.
				if _, err := m.Renew("w1", hash, nil); !errors.Is(err, ErrLeaseLost) {
					t.Fatalf("w1 renew after re-issue: err = %v, want ErrLeaseLost", err)
				}
			},
		},
		{
			// Lease is idempotent per worker: a retried request (response
			// lost) returns the same point, not a second one.
			name: "lease-idempotent-per-worker",
			run: func(t *testing.T, m *Manager, clock *fakeClock, hash string) {
				lr := m.Lease("w1", "")
				if lr.Point == nil || lr.Point.Hash() != hash {
					t.Fatalf("repeat lease returned a different point")
				}
			},
		},
		{
			// Renewing after another worker completed the point fails: the
			// state machine is terminal.
			name: "terminal-beats-renew",
			run: func(t *testing.T, m *Manager, clock *fakeClock, hash string) {
				clock.Advance(11 * time.Second)
				m.ExpireLeases()
				m.Lease("w2", "")
				if _, err := m.Report("w2", hash, okRecord("p0", hash, map[string]int{"v": 1}), nil); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Renew("w1", hash, nil); !errors.Is(err, ErrLeaseLost) {
					t.Fatalf("renew on done point: err = %v, want ErrLeaseLost", err)
				}
			},
		},
		{
			// A slow worker whose lease expired can still deliver the
			// result — deterministic simulations make late reports valid.
			name: "late-report-accepted",
			run: func(t *testing.T, m *Manager, clock *fakeClock, hash string) {
				clock.Advance(11 * time.Second)
				m.ExpireLeases()
				resp, err := m.Report("w1", hash, okRecord("p0", hash, map[string]int{"v": 1}), nil)
				if err != nil || !resp.Accepted || resp.Duplicate {
					t.Fatalf("late report: resp=%+v err=%v, want accepted non-duplicate", resp, err)
				}
				st, _ := m.JobStatus("j", false)
				if st.Done != 1 {
					t.Fatalf("done = %d, want 1", st.Done)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			m := newTestManager(t, clock, "")
			submitGrid(t, m, "j", 1)
			lr := m.Lease("w1", "")
			if lr.Point == nil {
				t.Fatal("no lease granted")
			}
			tc.run(t, m, clock, lr.Point.Hash())
		})
	}
}

// TestDuplicateCompletionIdempotent: two workers racing an expired lease
// both report; exactly one terminal record lands in the ledger.
func TestDuplicateCompletionIdempotent(t *testing.T) {
	clock := newFakeClock()
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	m := newTestManager(t, clock, ledger)
	submitGrid(t, m, "j", 1)
	lr := m.Lease("w1", "")
	hash := lr.Point.Hash()
	clock.Advance(11 * time.Second)
	m.ExpireLeases()
	m.Lease("w2", "")

	rec := okRecord("p0", hash, map[string]int{"v": 42})
	if resp, err := m.Report("w1", hash, rec, nil); err != nil || resp.Duplicate {
		t.Fatalf("first report: %+v, %v", resp, err)
	}
	if resp, err := m.Report("w2", hash, rec, nil); err != nil || !resp.Duplicate {
		t.Fatalf("second report: %+v, %v — want duplicate ack", resp, err)
	}
	// Retried RPC from the winner is also a duplicate.
	if resp, err := m.Report("w1", hash, rec, nil); err != nil || !resp.Duplicate {
		t.Fatalf("retried report: %+v, %v — want duplicate ack", resp, err)
	}

	done := 0
	if err := ReplayLedger(ledger, nil, func(r *LedgerRecord) {
		if r.Type == "done" {
			done++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("ledger has %d done records, want exactly 1", done)
	}
	mt := m.MetricsSnapshot()
	if mt.ReportsAccepted != 1 || mt.ReportsDuplicate != 2 {
		t.Fatalf("accepted=%d duplicate=%d, want 1/2", mt.ReportsAccepted, mt.ReportsDuplicate)
	}
}

// TestLedgerReplayRestoresState: a sweepd restart mid-sweep rebuilds
// pending/leased/done exactly, and replayed done records seed the result
// cache so resubmission never re-runs them.
func TestLedgerReplayRestoresState(t *testing.T) {
	clock := newFakeClock()
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	m := newTestManager(t, clock, ledger)
	submitGrid(t, m, "j", 3)
	lr := m.Lease("w1", "") // p0 leased
	doneHash := m.Lease("w2", "").Point.Hash()
	if _, err := m.Report("w2", doneHash, okRecord("p1", doneHash, map[string]int{"v": 1}), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh manager over the same ledger, clock unchanged.
	m2 := newTestManager(t, clock, ledger)
	st, err := m2.JobStatus("j", true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 1 || st.Leased != 1 || st.Done != 1 {
		t.Fatalf("after replay: pending=%d leased=%d done=%d, want 1/1/1", st.Pending, st.Leased, st.Done)
	}
	// The in-flight lease survives with its original deadline: the holder
	// can renew...
	if _, err := m2.Renew("w1", lr.Point.Hash(), nil); err != nil {
		t.Fatalf("renew after replay: %v", err)
	}
	// ...and resubmitting the done spec is a cache hit, not a re-run.
	st2, err := m2.Submit(&SubmitRequest{JobID: "j2", Points: []JobPoint{{ID: "p1", Spec: specOf("p1", 1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Done != 1 || st2.Cached != 1 || !st2.Complete {
		t.Fatalf("resubmit after replay: %+v, want instant cached completion", st2)
	}
}

// TestLedgerTornTail: a crash mid-append leaves a torn trailing record;
// replay warns, skips it, and the affected point simply re-runs. A corrupt
// mid-file record is also skipped, with a distinct warning.
func TestLedgerTornTail(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	m := newTestManager(t, clock, ledger)
	submitGrid(t, m, "j", 2)
	h0 := m.Lease("w1", "").Point.Hash()
	if _, err := m.Report("w1", h0, okRecord("p0", h0, map[string]int{"v": 0}), nil); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Simulate the crash: truncate the final record mid-byte.
	b, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ledger, b[:len(b)-25], 0o666); err != nil {
		t.Fatal(err)
	}

	var warns bytes.Buffer
	m2, err := NewManager(ManagerOptions{
		LedgerPath: ledger,
		Now:        clock.Now,
		Logger:     slog.New(slog.NewTextHandler(&warns, nil)),
	})
	if err != nil {
		t.Fatalf("replay with torn tail must not fail: %v", err)
	}
	defer m2.Close()
	if !strings.Contains(warns.String(), "torn trailing record") {
		t.Fatalf("no torn-tail warning; warns = %q", warns.String())
	}
	// The torn record was p0's done: it is pending again, and re-runnable.
	st, err := m2.JobStatus("j", false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 0 || st.Pending != 2 && st.Pending+st.Leased != 2 {
		t.Fatalf("after torn-tail replay: %+v, want both points runnable", st)
	}

	// Mid-file corruption: damage an early line, keep valid lines after.
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	lines[0] = `{"broken`
	if err := os.WriteFile(ledger, []byte(strings.Join(lines, "\n")+"\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	warns.Reset()
	m3, err := NewManager(ManagerOptions{
		LedgerPath: ledger,
		Now:        clock.Now,
		Logger:     slog.New(slog.NewTextHandler(&warns, nil)),
	})
	if err != nil {
		t.Fatalf("replay with mid-file corruption must not fail: %v", err)
	}
	defer m3.Close()
	if !strings.Contains(warns.String(), "mid-file corruption") {
		t.Fatalf("no mid-file corruption warning; warns = %q", warns.String())
	}
}

// TestSubmitIdempotent: a duplicated or blindly retried submit RPC of the
// identical grid returns current status; a different grid under the same
// job name is a conflict.
func TestSubmitIdempotent(t *testing.T) {
	clock := newFakeClock()
	m := newTestManager(t, clock, "")
	submitGrid(t, m, "j", 2)
	st, err := m.Submit(&SubmitRequest{JobID: "j", Points: []JobPoint{
		{ID: "p0", Spec: specOf("p0", 0)},
		{ID: "p1", Spec: specOf("p1", 1)},
	}})
	if err != nil {
		t.Fatalf("idempotent resubmit: %v", err)
	}
	if st.Total != 2 || st.Pending != 2 {
		t.Fatalf("resubmit status = %+v, want the job's current status", st)
	}
	if _, err := m.Submit(&SubmitRequest{JobID: "j", Points: []JobPoint{
		{ID: "p0", Spec: specOf("p0", 99)},
	}}); err == nil {
		t.Fatal("different grid under same job name must conflict")
	}
	mt := m.MetricsSnapshot()
	if mt.Jobs != 1 || mt.PointsRegistered != 2 {
		t.Fatalf("jobs=%d points=%d, want 1/2 (no double registration)", mt.Jobs, mt.PointsRegistered)
	}
}

// TestFailedSpecRetriedOnResubmit: failed is terminal within a job, but a
// fresh submission of the same spec gets a fresh chance.
func TestFailedSpecRetriedOnResubmit(t *testing.T) {
	clock := newFakeClock()
	m := newTestManager(t, clock, "")
	submitGrid(t, m, "j", 1)
	h := m.Lease("w1", "").Point.Hash()
	fail := &runner.Record{ID: "p0", SpecHash: h, Status: runner.StatusFailed, Attempts: 3, Class: runner.ClassPanic, Error: "boom"}
	if _, err := m.Report("w1", h, fail, nil); err != nil {
		t.Fatal(err)
	}
	st, _ := m.JobStatus("j", false)
	if st.Failed != 1 || !st.Complete {
		t.Fatalf("job after failure: %+v, want complete with 1 failed", st)
	}
	st2, err := m.Submit(&SubmitRequest{JobID: "j2", Points: []JobPoint{{ID: "p0", Spec: specOf("p0", 0)}}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Pending != 1 {
		t.Fatalf("resubmitted failed spec: %+v, want pending (fresh chance)", st2)
	}
}

// TestCachedIsPerJob: a cache hit is the hitting job's, not the point's.
// Job A runs p0 and job B is then served it from the cache: B counts it
// cached, and A, which ran it, still does not.
func TestCachedIsPerJob(t *testing.T) {
	clock := newFakeClock()
	m := newTestManager(t, clock, "")
	submitGrid(t, m, "A", 1)
	h := m.Lease("w1", "").Point.Hash()
	if _, err := m.Report("w1", h, okRecord("p0", h, map[string]int{"v": 0}), nil); err != nil {
		t.Fatal(err)
	}
	if st := submitGrid(t, m, "B", 1); st.Done != 1 || st.Cached != 1 {
		t.Fatalf("job B: %+v, want 1 done, 1 cached", st)
	}
	st, err := m.JobStatus("A", true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Cached != 0 || st.Points[0].Cached {
		t.Fatalf("job A after B's cache hit: %+v, want 1 done, none cached", st)
	}
}
