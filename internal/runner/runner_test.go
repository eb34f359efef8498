package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fault"
)

// okPoint returns a point that succeeds immediately with value v.
func okPoint(id string, v any) Point {
	return Point{
		ID:   id,
		Spec: map[string]string{"id": id},
		Run:  func(context.Context, Attempt) (any, error) { return v, nil },
	}
}

func fastOpts() Options {
	return Options{
		Workers:      2,
		PointTimeout: 5 * time.Second,
		MaxAttempts:  3,
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{&core.ProgressError{}, ClassProgress},
		{&core.CycleLimitError{}, ClassCycleLimit},
		{&diag.PanicError{Value: "x"}, ClassPanic},
		{fmt.Errorf("wrapped: %w", &core.ProgressError{}), ClassProgress},
		{&core.CanceledError{Cause: context.DeadlineExceeded}, ClassTimeout},
		{&core.CanceledError{Cause: context.Canceled}, ClassCanceled},
		{context.DeadlineExceeded, ClassTimeout},
		{errors.New("boom"), ClassError},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestPanicIsolation: one panicking point must not take down its siblings,
// and must be journaled as a classified panic with a stack.
func TestPanicIsolation(t *testing.T) {
	pts := []Point{
		okPoint("a", "ra"),
		{
			ID:   "boom",
			Spec: "boom",
			Run: func(context.Context, Attempt) (any, error) {
				panic("injected crash")
			},
		},
		okPoint("b", "rb"),
	}
	sum, err := Run(context.Background(), pts, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != 2 || sum.Failed != 1 {
		t.Fatalf("ok=%d failed=%d, want 2/1", sum.OK, sum.Failed)
	}
	rec := sum.Records[1]
	if rec.Status != StatusFailed || rec.Class != ClassPanic {
		t.Fatalf("record = %+v, want failed/panic", rec)
	}
	if rec.Error == "" {
		t.Error("panic record has no error text")
	}
}

// TestTimeoutRetry: a point that exceeds its wall-clock deadline on the
// first attempt is retried (timeouts are host conditions) and succeeds.
func TestTimeoutRetry(t *testing.T) {
	var tries atomic.Int32
	pt := Point{
		ID:   "slow",
		Spec: "slow",
		Run: func(ctx context.Context, att Attempt) (any, error) {
			if tries.Add(1) == 1 {
				<-ctx.Done() // simulate a run noticing its deadline
				return nil, &core.CanceledError{Cause: ctx.Err()}
			}
			return "done", nil
		},
	}
	opt := fastOpts()
	opt.PointTimeout = 20 * time.Millisecond
	sum, err := Run(context.Background(), []Point{pt}, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := sum.Records[0]
	if rec.Status != StatusOK || rec.Attempts != 2 || rec.Class != ClassTimeout {
		t.Fatalf("record = %+v, want ok after timeout retry", rec)
	}
	if n := tries.Load() - 1; n != 1 {
		t.Errorf("retries used = %d, want 1", n)
	}
}

// TestDeterministicFailureNotRetried: a watchdog trip without fault
// injection is deterministic — it must fail on the first attempt.
func TestDeterministicFailureNotRetried(t *testing.T) {
	var tries atomic.Int32
	pt := Point{
		ID:   "livelock",
		Spec: "livelock",
		Run: func(context.Context, Attempt) (any, error) {
			tries.Add(1)
			return nil, &core.ProgressError{Cycle: 100, Window: 50, Snapshot: &diag.Snapshot{Reason: "watchdog"}}
		},
	}
	sum, err := Run(context.Background(), []Point{pt}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tries.Load() != 1 {
		t.Fatalf("deterministic failure ran %d times, want 1", tries.Load())
	}
	rec := sum.Records[0]
	if rec.Status != StatusFailed || rec.Class != ClassProgress || rec.Diag == nil {
		t.Fatalf("record = %+v, want failed/progress with diag", rec)
	}
}

// TestFaultyRetriedWithFaultsDisabled: a fault-injected point whose first
// attempt trips the watchdog must be retried with DisableFaults set and
// recorded as recovered_after_fault, keeping the original snapshot.
func TestFaultyRetriedWithFaultsDisabled(t *testing.T) {
	snap := &diag.Snapshot{Cycle: 42, Reason: "watchdog"}
	pt := Point{
		ID:     "storm",
		Spec:   "storm",
		Faulty: true,
		Run: func(_ context.Context, att Attempt) (any, error) {
			if !att.DisableFaults {
				return nil, &core.ProgressError{Cycle: 42, Snapshot: snap}
			}
			return "clean", nil
		},
	}
	sum, err := Run(context.Background(), []Point{pt}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rec := sum.Records[0]
	if rec.Status != StatusRecovered {
		t.Fatalf("status = %q, want %q", rec.Status, StatusRecovered)
	}
	if rec.Diag == nil || rec.Diag.Cycle != 42 || rec.Diag.Reason != "watchdog" {
		t.Fatalf("original diag snapshot not preserved: %+v", rec.Diag)
	}
	if rec.Class != ClassProgress || rec.Error == "" {
		t.Errorf("root cause not recorded: class=%q error=%q", rec.Class, rec.Error)
	}
}

// TestBackoffCap: the exponential delay never exceeds the cap.
func TestBackoffCap(t *testing.T) {
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 8 * time.Second, 10 * time.Second, 10 * time.Second}
	for i, w := range want {
		if got := backoff(i); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

// TestHardCancelAbortsInFlight: canceling the run context aborts in-flight
// points; they journal as canceled (not terminal) so resume re-runs them.
func TestHardCancelAbortsInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pts := []Point{{
		ID: "victim", Spec: "victim",
		Run: func(rctx context.Context, _ Attempt) (any, error) {
			cancel()
			<-rctx.Done()
			return nil, &core.CanceledError{Cause: rctx.Err()}
		},
	}}
	sum, err := Run(ctx, pts, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rec := sum.Records[0]
	if rec.Status != StatusCanceled {
		t.Fatalf("status = %q, want canceled", rec.Status)
	}
	if rec.Status.Terminal() {
		t.Error("canceled must not be terminal (resume re-runs it)")
	}
}

// TestDuplicateIDsRejected: duplicate point IDs are a setup error.
func TestDuplicateIDsRejected(t *testing.T) {
	_, err := Run(context.Background(), []Point{okPoint("x", 1), okPoint("x", 2)}, fastOpts())
	if err == nil {
		t.Fatal("duplicate point ids accepted")
	}
}

// TestBackoffJitter: jittered delays stay inside [d*(1-j), d), the same
// seed draws the same sequence, and a negative jitter disables it.
func TestBackoffJitter(t *testing.T) {
	// mk returns a pool drawing from seed under jitter jit (the schedule's
	// jitter is restored when the test ends).
	mk := func(t *testing.T, jit float64, seed uint64) *pool {
		saved := retry.jitter
		t.Cleanup(func() { retry.jitter = saved })
		retry.jitter = jit
		p, err := newPool(nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.jitterRng = fault.NewStream(seed)
		return p
	}
	cases := []struct {
		name string
		jit  float64
		lo   float64 // fraction of d
	}{
		{"default-half", DefaultBackoffJitter, 0.5},
		{"quarter", 0.25, 0.75},
		{"full", 1.0, 0.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mk(t, tc.jit, 42)
			for attempt := 0; attempt < 4; attempt++ {
				d := backoff(attempt)
				for i := 0; i < 50; i++ {
					got := p.jitter(d)
					if got < time.Duration(tc.lo*float64(d)) || got > d {
						t.Fatalf("jitter(%v) = %v, want within [%v, %v]",
							d, got, time.Duration(tc.lo*float64(d)), d)
					}
				}
			}
		})
	}

	t.Run("seed-deterministic", func(t *testing.T) {
		a, b := mk(t, 0.5, 7), mk(t, 0.5, 7)
		for i := 0; i < 32; i++ {
			if da, db := a.jitter(time.Second), b.jitter(time.Second); da != db {
				t.Fatalf("draw %d: %v vs %v — same seed must draw same jitter", i, da, db)
			}
		}
	})

	t.Run("negative-disables", func(t *testing.T) {
		p := mk(t, -1, 42)
		for i := 0; i < 8; i++ {
			if got := p.jitter(time.Second); got != time.Second {
				t.Fatalf("jitter disabled but got %v, want exactly 1s", got)
			}
		}
	})
}

// TestCheckpointPathLifecycle: with Options.CheckpointDir set, every
// attempt of a point sees the same stable CheckpointPath prefix (so a
// retry resumes the previous attempt's captures), the directory is
// created, checkpoint files are deleted once the point succeeds, and
// kept when it fails (post-mortem) or is canceled (resume later).
func TestCheckpointPathLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpts")

	var mu sync.Mutex
	paths := make(map[string][]string) // id -> CheckpointPath per attempt
	record := func(id, path string) {
		mu.Lock()
		paths[id] = append(paths[id], path)
		mu.Unlock()
	}
	writeCkpt := func(prefix string) {
		if err := os.WriteFile(prefix+".main.ckpt", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	attempts := 0
	pts := []Point{
		{
			ID:   "ok after retry",
			Spec: map[string]string{"id": "ok"},
			Run: func(ctx context.Context, att Attempt) (any, error) {
				record("ok", att.CheckpointPath)
				writeCkpt(att.CheckpointPath)
				attempts++
				if attempts == 1 {
					return nil, context.DeadlineExceeded // transient: retried
				}
				return "done", nil
			},
		},
		{
			ID:   "fails",
			Spec: map[string]string{"id": "fails"},
			Run: func(ctx context.Context, att Attempt) (any, error) {
				record("fails", att.CheckpointPath)
				writeCkpt(att.CheckpointPath)
				return nil, errors.New("deterministic failure")
			},
		},
	}
	sum, err := Run(context.Background(), pts, Options{
		Workers: 1, PointTimeout: 5 * time.Second, MaxAttempts: 3,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records[0].Status != StatusOK || sum.Records[1].Status != StatusFailed {
		t.Fatalf("statuses: %s, %s", sum.Records[0].Status, sum.Records[1].Status)
	}

	okPaths := paths["ok"]
	if len(okPaths) != 2 {
		t.Fatalf("ok point ran %d attempts, want 2", len(okPaths))
	}
	want := CheckpointPrefix(dir, "ok after retry")
	for i, p := range okPaths {
		if p != want {
			t.Errorf("attempt %d CheckpointPath = %q, want stable %q", i, p, want)
		}
	}
	// Success: the point's checkpoints are gone.
	if m, _ := filepath.Glob(want + ".*.ckpt"); len(m) != 0 {
		t.Errorf("completed point left checkpoints behind: %v", m)
	}
	// Failure: kept for post-mortem restore.
	failPrefix := CheckpointPrefix(dir, "fails")
	if m, _ := filepath.Glob(failPrefix + ".*.ckpt"); len(m) != 1 {
		t.Errorf("failed point's checkpoints missing (glob %s.*.ckpt)", failPrefix)
	}
}

// TestCheckpointKeptOnCancel: a canceled point keeps its checkpoints so a
// resumed sweep continues mid-run instead of restarting.
func TestCheckpointKeptOnCancel(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	pts := []Point{{
		ID:   "pt",
		Spec: map[string]string{"id": "pt"},
		Run: func(rctx context.Context, att Attempt) (any, error) {
			if err := os.WriteFile(att.CheckpointPath+".main.ckpt", []byte("x"), 0o644); err != nil {
				t.Error(err)
			}
			cancel()
			<-rctx.Done()
			return nil, rctx.Err()
		},
	}}
	sum, err := Run(ctx, pts, Options{Workers: 1, PointTimeout: 5 * time.Second, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records[0].Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", sum.Records[0].Status)
	}
	if m, _ := filepath.Glob(CheckpointPrefix(dir, "pt") + ".*.ckpt"); len(m) != 1 {
		t.Errorf("canceled point's checkpoints were deleted (found %v)", m)
	}
}

// TestCheckpointPrefixSanitizes: point IDs with hostile characters map to
// safe, distinct-enough filenames under the checkpoint dir.
func TestCheckpointPrefixSanitizes(t *testing.T) {
	p := CheckpointPrefix("/tmp/ck", "oltp/8cpu: warm=2 (a,b)")
	if filepath.Dir(p) != "/tmp/ck" {
		t.Fatalf("prefix %q escaped the checkpoint dir", p)
	}
	base := filepath.Base(p)
	for _, r := range base {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '.' || r == '_' || r == '-'
		if !ok {
			t.Errorf("unsafe rune %q survived sanitization in %q", r, base)
		}
	}
	if CheckpointPrefix("", "x") != "" {
		t.Error("empty dir must disable checkpointing")
	}
}
