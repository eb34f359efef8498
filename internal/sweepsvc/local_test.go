package sweepsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// The local sweep path: a Local (manager + HTTP handler over in-memory
// pipes) with in-process workers, run on tiny DSS simulations.

// tinyGrid is n tiny DSS points that differ in issue width.
func tinyGrid(n int) []JobPoint {
	pts := make([]JobPoint, n)
	for i := range pts {
		spec, _ := json.Marshal(map[string]any{"kind": "tiny-dss", "width": 1 << i})
		pts[i] = JobPoint{ID: fmt.Sprintf("dss-%d", i), Spec: spec}
	}
	return pts
}

// tinyPoint builds a tiny-dss JobPoint's runner.Point. hold, when non-nil,
// runs first and may block (to keep the point in flight).
func tinyPoint(jp *JobPoint, hold func(ctx context.Context) error) (runner.Point, error) {
	var sp struct{ Width int }
	if err := json.Unmarshal(jp.Spec, &sp); err != nil {
		return runner.Point{}, err
	}
	return runner.Point{
		ID: jp.ID, Spec: jp.Spec,
		Run: func(ctx context.Context, _ runner.Attempt) (any, error) {
			if hold != nil {
				if err := hold(ctx); err != nil {
					return nil, err
				}
			}
			cfg := config.Default()
			cfg.Nodes = 2
			cfg.IssueWidth = sp.Width
			return experiments.RunDSS(cfg, experiments.Scale{DSSRows: 200, MaxCycles: 100_000_000, Context: ctx}, jp.ID)
		},
	}, nil
}

func newLocal(t *testing.T, ledger string, ttl time.Duration) *Local {
	t.Helper()
	loc, err := NewLocal(ManagerOptions{LedgerPath: ledger, LeaseTTL: ttl, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

func mergedBytes(t *testing.T, pts []MergedPoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMerged(&buf, pts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runLocal submits grid to loc as job, runs n workers built by build
// until the job completes, and returns the final status.
func runLocal(t *testing.T, loc *Local, job string, grid []JobPoint, n int, build func(*JobPoint) (runner.Point, error)) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := loc.Client.Submit(ctx, &SubmitRequest{JobID: job, Points: grid}); err != nil {
		t.Fatal(err)
	}
	wctx, stop := context.WithCancel(ctx)
	done := loc.Start(wctx, job, n, func(w *Worker) { w.Build = build })
	st, err := loc.Client.WaitJob(ctx, job, nil)
	stop()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLocalMatchesRunner: a grid run through the in-process harness
// writes the same merged bytes as runner.Run over the same points.
func TestLocalMatchesRunner(t *testing.T) {
	grid := tinyGrid(3)
	build := func(jp *JobPoint) (runner.Point, error) { return tinyPoint(jp, nil) }
	pts := make([]runner.Point, len(grid))
	for i := range grid {
		pts[i], _ = build(&grid[i])
	}
	sum, err := runner.Run(context.Background(), pts, runner.Options{Workers: 1, PointTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	want := mergedBytes(t, MergedFromRecords(sum.Records))

	loc := newLocal(t, "", 0)
	defer loc.Close()
	if st := runLocal(t, loc, GridJobID(grid), grid, 2, build); st.Done != len(grid) {
		t.Fatalf("status %+v, want %d done", st, len(grid))
	}
	res, err := loc.Client.Results(context.Background(), GridJobID(grid))
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedBytes(t, res.Points); !bytes.Equal(got, want) {
		t.Errorf("local merged results differ from runner.Run:\n--- runner ---\n%s\n--- local ---\n%s", want, got)
	}
}

// TestLocalDrain: once a worker's Drain fires it leases nothing more; the
// point in flight finishes and is reported, and the rest stay pending.
func TestLocalDrain(t *testing.T) {
	grid := tinyGrid(3)
	loc := newLocal(t, "", 0)
	defer loc.Close()
	ctx := context.Background()
	job := GridJobID(grid)
	if _, err := loc.Client.Submit(ctx, &SubmitRequest{JobID: job, Points: grid}); err != nil {
		t.Fatal(err)
	}
	drain, drainNow := context.WithCancel(ctx)
	defer drainNow()
	hold := func(context.Context) error {
		drainNow() // the drain fires while this point is in flight
		return nil
	}
	done := loc.Start(ctx, job, 1, func(w *Worker) {
		w.Drain = drain
		w.Build = func(jp *JobPoint) (runner.Point, error) { return tinyPoint(jp, hold) }
	})
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("drained worker did not return")
	}

	st, err := loc.Client.JobStatus(ctx, job, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Pending != 2 || st.Leased != 0 {
		t.Fatalf("after drain: %+v, want 1 done, 2 pending", st)
	}
	if ps := st.Points[0]; ps.Status != PointDone || ps.Worker != "local-0" {
		t.Errorf("in-flight point = %+v, want done by local-0", ps)
	}
	if n := loc.m.MetricsSnapshot().LeasesIssued; n != 1 {
		t.Errorf("%d leases issued, want 1 (none after the drain)", n)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestLocalDrainDuringLease: a drain that fires while a lease request is
// in flight stops the worker before it runs the point it got back; the
// lease stays with local-0 for a resumed local-0 to take back.
func TestLocalDrainDuringLease(t *testing.T) {
	grid := tinyGrid(2)
	loc := newLocal(t, "", 0)
	defer loc.Close()
	ctx := context.Background()
	job := GridJobID(grid)
	if _, err := loc.Client.Submit(ctx, &SubmitRequest{JobID: job, Points: grid}); err != nil {
		t.Fatal(err)
	}
	drain, drainNow := context.WithCancel(ctx)
	defer drainNow()
	var built atomic.Int32
	done := loc.Start(ctx, job, 1, func(w *Worker) {
		w.Drain = drain
		w.Client = &Client{Base: loc.Client.Base, HTTP: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			resp, err := loc.Client.HTTP.Transport.RoundTrip(r)
			if r.URL.Path == "/api/v1/lease" {
				drainNow() // the lease was granted; the drain beats its response
			}
			return resp, err
		})}}
		w.Build = func(jp *JobPoint) (runner.Point, error) {
			built.Add(1)
			return tinyPoint(jp, nil)
		}
	})
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("drained worker did not return")
	}

	if n := built.Load(); n != 0 {
		t.Errorf("worker built %d points after the drain, want 0", n)
	}
	st, err := loc.Client.JobStatus(ctx, job, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Leased != 1 || st.Pending != 1 || st.Points[0].Worker != "local-0" {
		t.Fatalf("after drain: %+v, want dss-0 leased to local-0 and dss-1 pending", st)
	}
}

// TestLocalTwoGridsOneLedger: a sweep of one grid on a ledger that holds
// another grid's unfinished points runs only its own points; the other
// grid's pending points stay pending, and a point both grids share that is
// already done is a cache hit.
func TestLocalTwoGridsOneLedger(t *testing.T) {
	gridA := tinyGrid(3)
	all := tinyGrid(4)
	gridB := []JobPoint{all[0], all[3]}
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	ctx := context.Background()

	// Grid A drains after dss-0: dss-1 and dss-2 stay pending.
	loc := newLocal(t, ledger, 0)
	jobA := GridJobID(gridA)
	if _, err := loc.Client.Submit(ctx, &SubmitRequest{JobID: jobA, Points: gridA}); err != nil {
		t.Fatal(err)
	}
	drain, drainNow := context.WithCancel(ctx)
	defer drainNow()
	done := loc.Start(ctx, jobA, 1, func(w *Worker) {
		w.Drain = drain
		w.Build = func(jp *JobPoint) (runner.Point, error) {
			return tinyPoint(jp, func(context.Context) error { drainNow(); return nil })
		}
	})
	<-done
	loc.Close()

	// Grid B on the same ledger, two workers.
	loc = newLocal(t, ledger, 0)
	defer loc.Close()
	var mu sync.Mutex
	var built []string
	build := func(jp *JobPoint) (runner.Point, error) {
		mu.Lock()
		built = append(built, jp.ID)
		mu.Unlock()
		return tinyPoint(jp, nil)
	}
	st := runLocal(t, loc, GridJobID(gridB), gridB, 2, build)
	if st.Done != 2 || st.Cached != 1 {
		t.Fatalf("grid B: %+v, want 2 done, 1 cached", st)
	}
	if len(built) != 1 || built[0] != "dss-3" {
		t.Errorf("grid B's workers ran %v, want only dss-3", built)
	}
	stA, err := loc.Client.JobStatus(ctx, jobA, false)
	if err != nil {
		t.Fatal(err)
	}
	if stA.Done != 1 || stA.Pending != 2 {
		t.Errorf("grid A after grid B: %+v, want 1 done, 2 pending", stA)
	}
}

// TestLocalRetriedFailureSurvivesReplay: a point that failed under one job
// and then finished under another is done after the ledger is reopened,
// so rerunning the first grid leases nothing and serves it from the cache.
func TestLocalRetriedFailureSurvivesReplay(t *testing.T) {
	grid := tinyGrid(2)
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	job := GridJobID(grid)
	build := func(jp *JobPoint) (runner.Point, error) { return tinyPoint(jp, nil) }

	loc := newLocal(t, ledger, 0)
	st := runLocal(t, loc, job, grid, 1, func(jp *JobPoint) (runner.Point, error) {
		if jp.ID != "dss-1" {
			return tinyPoint(jp, nil)
		}
		return tinyPoint(jp, func(context.Context) error { return errors.New("injected failure") })
	})
	loc.Close()
	if st.Done != 1 || st.Failed != 1 {
		t.Fatalf("first run: %+v, want 1 done, 1 failed", st)
	}

	// The retry runs as another job; dss-1 gets a fresh chance.
	loc = newLocal(t, ledger, 0)
	st = runLocal(t, loc, "retry", grid, 1, build)
	loc.Close()
	if st.Done != 2 {
		t.Fatalf("retry: %+v, want 2 done", st)
	}

	for _, id := range []string{job, "again"} {
		loc = newLocal(t, ledger, 0)
		st = runLocal(t, loc, id, grid, 1, build)
		if st.Done != 2 || st.Failed != 0 {
			t.Errorf("job %s after reopening: %+v, want 2 done", id, st)
		}
		if n := loc.m.MetricsSnapshot().LeasesIssued; n != 0 {
			t.Errorf("job %s after reopening issued %d leases, want 0", id, n)
		}
		loc.Close()
	}
	if st.Cached != 2 {
		t.Errorf("a new job after reopening: %+v, want 2 cached", st)
	}
}

// TestLocalResume: a local sweep resumes by reopening its ledger and
// resubmitting the same grid. A point local-0 held when the process was
// killed goes back to the new local-0 at once, not after the lease TTL;
// once the grid is done a resubmission leases nothing, its points are
// result-cache hits, and the ledger holds one terminal record per hash.
func TestLocalResume(t *testing.T) {
	grid := tinyGrid(3)
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	ctx := context.Background()
	job := GridJobID(grid)

	// First process: dss-0 completes, then local-0 is killed while it
	// holds dss-1.
	loc := newLocal(t, ledger, time.Hour)
	if _, err := loc.Client.Submit(ctx, &SubmitRequest{JobID: job, Points: grid}); err != nil {
		t.Fatal(err)
	}
	kill, killNow := context.WithCancel(ctx)
	done := loc.Start(kill, job, 1, func(w *Worker) {
		w.Build = func(jp *JobPoint) (runner.Point, error) {
			if jp.ID != "dss-1" {
				return tinyPoint(jp, nil)
			}
			return tinyPoint(jp, func(ctx context.Context) error {
				killNow()
				<-ctx.Done()
				return ctx.Err()
			})
		}
	})
	<-done
	st, err := loc.Client.JobStatus(ctx, job, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Leased != 1 || st.Points[1].Worker != "local-0" {
		t.Fatalf("at the kill: %+v, want dss-0 done and dss-1 leased to local-0", st)
	}
	loc.Close()

	// Second process, same ledger, a one-hour lease TTL: local-0 takes
	// dss-1 back at once and the sweep completes.
	loc = newLocal(t, ledger, time.Hour)
	start := time.Now()
	build := func(jp *JobPoint) (runner.Point, error) { return tinyPoint(jp, nil) }
	if st := runLocal(t, loc, GridJobID(grid), grid, 1, build); st.Done != len(grid) {
		t.Fatalf("resumed sweep: %+v, want %d done", st, len(grid))
	}
	if d := time.Since(start); d > 5*time.Minute {
		t.Fatalf("resume took %v", d)
	}
	if n := loc.m.MetricsSnapshot().LeasesIssued; n != 1 {
		t.Errorf("resumed sweep issued %d leases, want 1 (dss-2; dss-1's lease is local-0's already)", n)
	}
	res, err := loc.Client.Results(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	want := mergedBytes(t, res.Points)
	loc.Close()

	// Third process: the finished grid leases nothing and writes the same
	// merged bytes; the same points under another job are cache hits.
	loc = newLocal(t, ledger, time.Hour)
	defer loc.Close()
	if st := runLocal(t, loc, GridJobID(grid), grid, 1, build); st.Done != len(grid) {
		t.Fatalf("finished grid: %+v, want %d done", st, len(grid))
	}
	if n := loc.m.MetricsSnapshot().LeasesIssued; n != 0 {
		t.Errorf("finished grid issued %d leases, want 0", n)
	}
	res, err = loc.Client.Results(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedBytes(t, res.Points); !bytes.Equal(got, want) {
		t.Errorf("finished grid's merged bytes changed:\n--- before ---\n%s\n--- after ---\n%s", want, got)
	}
	st, err = loc.Client.Submit(ctx, &SubmitRequest{JobID: "again", Points: grid})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Cached != len(grid) {
		t.Errorf("resubmission under another job: %+v, want %d cached", st, len(grid))
	}

	terminal := make(map[string]int)
	if err := ReplayLedger(ledger, nil, func(r *LedgerRecord) {
		if r.Type == "done" || r.Type == "failed" {
			terminal[r.Hash]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, jp := range grid {
		if n := terminal[jp.Hash()]; n != 1 {
			t.Errorf("%s has %d terminal ledger records, want 1", jp.ID, n)
		}
	}
}

// TestLocalRerunFinishedGridIsCached: rerunning a finished grid on its
// ledger rejoins its job, and every member, already done, counts as
// cached: the rerun runs none of them.
func TestLocalRerunFinishedGridIsCached(t *testing.T) {
	grid := tinyGrid(2)
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	job := GridJobID(grid)
	build := func(jp *JobPoint) (runner.Point, error) { return tinyPoint(jp, nil) }

	loc := newLocal(t, ledger, 0)
	if st := runLocal(t, loc, job, grid, 1, build); st.Done != len(grid) || st.Cached != 0 {
		t.Fatalf("first run: %+v, want %d done, none cached", st, len(grid))
	}
	loc.Close()

	loc = newLocal(t, ledger, 0)
	defer loc.Close()
	st, err := loc.Client.Submit(context.Background(), &SubmitRequest{JobID: job, Points: grid})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Cached != st.Total {
		t.Errorf("rerun's submit: %+v, want all %d cached", st, st.Total)
	}
	if st := runLocal(t, loc, job, grid, 1, build); st.Cached != st.Total {
		t.Errorf("rerun: %+v, want all %d cached", st, st.Total)
	}
}

// TestWorkerRetries: a worker configured for 4 retries runs a point that
// times out 4 times a fifth time, and it ends ok.
func TestWorkerRetries(t *testing.T) {
	grid := tinyGrid(1)
	loc := newLocal(t, "", 0)
	defer loc.Close()
	var tries atomic.Int32
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	job := GridJobID(grid)
	if _, err := loc.Client.Submit(ctx, &SubmitRequest{JobID: job, Points: grid}); err != nil {
		t.Fatal(err)
	}
	wctx, stop := context.WithCancel(ctx)
	done := loc.Start(wctx, job, 1, func(w *Worker) {
		w.Retries = 4
		w.Build = func(jp *JobPoint) (runner.Point, error) {
			return runner.Point{ID: jp.ID, Spec: jp.Spec, Run: func(context.Context, runner.Attempt) (any, error) {
				if tries.Add(1) <= 4 {
					return nil, context.DeadlineExceeded // a timeout: retryable
				}
				return "ok", nil
			}}, nil
		}
	})
	_, err := loc.Client.WaitJob(ctx, job, nil)
	stop()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	st, err := loc.Client.JobStatus(ctx, job, true)
	if err != nil {
		t.Fatal(err)
	}
	ps := st.Points[0]
	if ps.Status != PointDone || ps.Attempts != 5 || tries.Load() != 5 {
		t.Fatalf("point %+v after %d tries, want done after 5 attempts", ps, tries.Load())
	}
}
