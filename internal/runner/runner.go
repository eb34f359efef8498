// Package runner is the simulator's run-orchestration layer: it executes a
// sweep's run points through a supervised, bounded worker pool so that
// multi-hour experiment grids survive individual failures and operator
// interruption.
//
// Each point runs under a per-point context deadline (derived from its
// simulated-cycle budget, capped by a wall-clock bound) with panic
// isolation — a crash in one point becomes a *diag.PanicError result
// instead of killing sibling workers. Failures are classified
// (ProgressError / CycleLimitError / panic / timeout / canceled) and only
// retryable ones are retried, with capped exponential backoff, up to
// Options.MaxAttempts tries per point; a fault-injected point that
// livelocks is retried with its fault profile disabled and recorded as
// recovered_after_fault, preserving the original diagnostic snapshot.
// Outcomes stream to a durable JSONL journal as each point completes.
//
// Every point builds its own core.System, so worker parallelism cannot
// change any point's simulated outcome: for a fixed seed the parallel
// sweep's per-point counters are bit-identical to serial execution
// (asserted by the orchestration tests in internal/experiments).
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Class is a failure classification; it decides retryability.
type Class string

const (
	// ClassProgress: the forward-progress watchdog tripped (livelock).
	// Deterministic for a fixed seed, so only retryable when the point ran
	// with fault injection (retry disables the fault profile).
	ClassProgress Class = "progress"
	// ClassCycleLimit: the run exceeded MaxCycles. Retryable only for
	// fault-injected points (faults stretch runs past the bound).
	ClassCycleLimit Class = "cycle-limit"
	// ClassPanic: the machine model panicked; recovered into a
	// *diag.PanicError. Deterministic, so retryable only under faults.
	ClassPanic Class = "panic"
	// ClassTimeout: the per-point wall-clock deadline expired — a host
	// condition (loaded machine), not a simulation outcome. Always
	// retryable.
	ClassTimeout Class = "timeout"
	// ClassCanceled: the sweep itself was canceled. Never retried.
	ClassCanceled Class = "canceled"
	// ClassError: any other error (workload failure, bad config, I/O).
	// Retryable only under faults.
	ClassError Class = "error"
)

// Classify maps a run error onto its failure class.
func Classify(err error) Class {
	var pan *diag.PanicError
	var pe *core.ProgressError
	var cle *core.CycleLimitError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &pan):
		return ClassPanic
	case errors.As(err, &pe):
		return ClassProgress
	case errors.As(err, &cle):
		return ClassCycleLimit
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	}
	return ClassError
}

// SnapshotOf extracts the machine snapshot attached to a classified run
// error, if any.
func SnapshotOf(err error) *diag.Snapshot {
	var pan *diag.PanicError
	if errors.As(err, &pan) {
		return pan.Snapshot
	}
	var pe *core.ProgressError
	if errors.As(err, &pe) {
		return pe.Snapshot
	}
	var cle *core.CycleLimitError
	if errors.As(err, &cle) {
		return cle.Snapshot
	}
	var ce *core.CanceledError
	if errors.As(err, &ce) {
		return ce.Snapshot
	}
	return nil
}

// retryable reports whether a failure of class c should be retried, given
// whether the failing attempt ran with fault injection enabled.
func retryable(c Class, faulted bool) bool {
	switch c {
	case ClassTimeout:
		return true
	case ClassProgress, ClassCycleLimit, ClassPanic, ClassError:
		return faulted // deterministic without faults: retrying reproduces the failure
	}
	return false
}

// Attempt tells Point.Run which try this is and whether to disable the
// point's fault profile (set on retries after fault-induced failures).
// CheckpointPath, when non-empty (Options.CheckpointDir is set), is the
// point's stable checkpoint path prefix: the run should checkpoint its
// progress under it and resume from any valid checkpoint already there,
// so a retried or re-dispatched point re-simulates only the cycles
// since the last capture instead of restarting from cycle zero.
type Attempt struct {
	Number         int // 0 = first try
	DisableFaults  bool
	CheckpointPath string
}

// Point is one schedulable unit of a sweep.
type Point struct {
	// ID names the point in journals, logs and events; unique per sweep.
	ID string
	// Spec is the point's JSON-marshalable identity; its hash keys the
	// sweep ledger and result cache, so a changed spec runs again.
	Spec any
	// MaxCycles is the point's simulated-cycle budget, used to derive the
	// per-point wall-clock deadline (0 = no derivation; the cap applies).
	MaxCycles uint64
	// Faulty marks a point running with fault injection: its failures are
	// retried with Attempt.DisableFaults set.
	Faulty bool
	// Series names the point's telemetry series path (journaled verbatim).
	Series string
	// Run executes the point. It must honor ctx (the per-point deadline
	// and the sweep's hard cancel) and be safe to call again for retries.
	Run func(ctx context.Context, att Attempt) (any, error)
}

// EventKind labels pool progress events.
type EventKind string

// EventDone is the one event kind: a point finished (terminal or
// canceled) and its Record is set.
const EventDone EventKind = "done"

// Event is one pool progress notification. Events are delivered serially
// (never concurrently) but in completion order, not point order.
type Event struct {
	Kind    EventKind
	Point   string
	Attempt int     // attempts made
	Err     error   // the failure, for failed and canceled points
	Record  *Record // the point's record
	Result  any     // the point's outcome (successful points)
}

// Options configures a pool run.
type Options struct {
	// Workers bounds parallel points (<=0 means 1, i.e. serial).
	Workers int
	// PointTimeout fixes the per-point wall-clock deadline; 0 derives it
	// from Point.MaxCycles at MinCyclesPerSecond, clamped to
	// [MinPointTimeout, DefaultWallClockCap].
	PointTimeout time.Duration
	// MaxAttempts bounds tries per point (<=1 = one try, no retries).
	MaxAttempts int
	// BackoffBase is the delay before the first retry (0 =
	// DefaultBackoffBase); it doubles per attempt up to BackoffCap (0 =
	// DefaultBackoffCap).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BackoffJitter randomizes each retry delay so concurrent workers
	// retrying the same transient fault (a loaded host, a flaky sweepd)
	// don't synchronize into retry storms: a delay d becomes
	// d*(1-j) + U[0, d*j). 0 means DefaultBackoffJitter; negative disables
	// jitter (exact exponential delays, used by deterministic tests).
	BackoffJitter float64
	// JitterSeed seeds the jitter stream (0 = derived from wall clock, so
	// distinct worker processes draw distinct schedules).
	JitterSeed uint64
	// CheckpointDir, when non-empty, gives every point a stable
	// checkpoint path prefix under this directory (created if missing),
	// passed to Point.Run via Attempt.CheckpointPath. Retries — and
	// resumed sweeps re-running a canceled point — pick up from the last
	// capture; a point's checkpoints are deleted once it completes.
	CheckpointDir string
	// Journal, when non-nil, receives every started point's record as it
	// completes. Journal write failures are logged (with Logger), not
	// fatal.
	Journal *Journal
	// OnEvent, when non-nil, observes each finished point. Called serially.
	OnEvent func(Event)
	// Logger, when non-nil, emits structured per-point lifecycle lines
	// (start/retry/done with the stable obs keys). Orchestration-path
	// only — never consulted inside a running simulation.
	Logger *slog.Logger
}

// Timeout-derivation constants. MinCyclesPerSecond is a deliberately
// conservative floor on simulation speed (the simulator sustains tens of
// millions of cycles per second): a point given fewer wall-clock seconds
// than MaxCycles/MinCyclesPerSecond could time out on a healthy run.
const (
	MinCyclesPerSecond   = 500_000
	MinPointTimeout      = time.Minute
	DefaultWallClockCap  = 30 * time.Minute
	DefaultBackoffBase   = 250 * time.Millisecond
	DefaultBackoffCap    = 10 * time.Second
	DefaultBackoffJitter = 0.5
)

// Summary aggregates a pool run. Records holds one record per input point
// in input order; skipped points get a synthetic StatusSkipped record.
type Summary struct {
	Records   []*Record
	OK        int // StatusOK
	Recovered int // StatusRecovered
	Failed    int // StatusFailed
	Canceled  int // StatusCanceled
	Skipped   int // never dispatched
}

func (s *Summary) add(r *Record) {
	switch r.Status {
	case StatusOK:
		s.OK++
	case StatusRecovered:
		s.Recovered++
	case StatusFailed:
		s.Failed++
	case StatusCanceled:
		s.Canceled++
	case StatusSkipped:
		s.Skipped++
	}
}

// Complete reports whether every point succeeded (ok or recovered).
func (s *Summary) Complete() bool {
	return s.Failed+s.Canceled+s.Skipped == 0
}

// ExitCode maps the summary onto the CLI exit-code convention: 0 = every
// point succeeded, 3 = partial success (some points succeeded, some failed
// or never ran), 1 = nothing succeeded.
func (s *Summary) ExitCode() int {
	switch {
	case s.Complete():
		return 0
	case s.OK+s.Recovered > 0:
		return 3
	}
	return 1
}

// Run executes the points under opt. Canceling ctx aborts in-flight
// points (their Run contexts are children of ctx) and skips the rest. Run
// itself returns an error only for setup problems (duplicate point IDs);
// per-point failures are reported through the summary and journal.
func Run(ctx context.Context, points []Point, opt Options) (*Summary, error) {
	p, err := newPool(points, opt)
	if err != nil {
		return nil, err
	}
	return p.run(ctx, points), nil
}

type pool struct {
	opt     Options
	timeout func(Point) time.Duration
	eventMu sync.Mutex

	jitterMu  sync.Mutex // workers draw retry jitter concurrently
	jitterRng *fault.Stream
}

func newPool(points []Point, opt Options) (*pool, error) {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = DefaultBackoffBase
	}
	if opt.BackoffCap <= 0 {
		opt.BackoffCap = DefaultBackoffCap
	}
	seen := make(map[string]bool, len(points))
	for _, pt := range points {
		if seen[pt.ID] {
			return nil, errors.New("runner: duplicate point id " + pt.ID)
		}
		seen[pt.ID] = true
	}
	if opt.CheckpointDir != "" {
		if err := os.MkdirAll(opt.CheckpointDir, 0o777); err != nil {
			return nil, fmt.Errorf("runner: checkpoint dir: %w", err)
		}
	}
	p := &pool{opt: opt}
	p.timeout = func(pt Point) time.Duration {
		if opt.PointTimeout > 0 {
			return opt.PointTimeout
		}
		if pt.MaxCycles == 0 {
			return DefaultWallClockCap
		}
		d := time.Duration(pt.MaxCycles/MinCyclesPerSecond) * time.Second
		if d < MinPointTimeout {
			d = MinPointTimeout
		}
		if d > DefaultWallClockCap {
			d = DefaultWallClockCap
		}
		return d
	}
	if opt.BackoffJitter == 0 {
		p.opt.BackoffJitter = DefaultBackoffJitter
	}
	if p.opt.BackoffJitter > 0 {
		seed := opt.JitterSeed
		if seed == 0 {
			seed = uint64(time.Now().UnixNano())
		}
		p.jitterRng = fault.NewStream(seed)
	}
	return p, nil
}

func (p *pool) emit(ev Event) {
	if p.opt.OnEvent == nil {
		return
	}
	p.eventMu.Lock()
	defer p.eventMu.Unlock()
	p.opt.OnEvent(ev)
}

func (p *pool) run(ctx context.Context, points []Point) *Summary {
	records := make([]*Record, len(points))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A send already pending when ctx ended still delivers;
				// re-check here so the job is skipped instead of started.
				if ctx.Err() != nil {
					continue // leave nil => skipped
				}
				records[i] = p.runPoint(ctx, points[i])
			}
		}()
	}
	for i := range points {
		if ctx.Err() != nil {
			break // stop dispatching; remaining points stay nil => skipped
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	sum := &Summary{Records: records}
	for i, r := range records {
		if r == nil {
			r = &Record{ID: points[i].ID, SpecHash: SpecHash(points[i].Spec), Status: StatusSkipped}
			records[i] = r
		}
		sum.add(r)
	}
	return sum
}

// runPoint drives one point through attempts, classification, backoff and
// journaling, and returns its terminal record.
func (p *pool) runPoint(ctx context.Context, pt Point) *Record {
	rec := &Record{ID: pt.ID, SpecHash: SpecHash(pt.Spec), Series: pt.Series}
	if p.opt.Logger != nil {
		p.opt.Logger.Debug("point start", obs.KeyPoint, pt.ID, obs.KeySpecHash, rec.SpecHash)
	}
	start := time.Now()
	disableFaults := false
	ckPrefix := p.checkpointPrefix(pt)
	var result any
	for attempt := 0; ; attempt++ {
		rec.Attempts = attempt + 1
		res, err := p.attempt(ctx, pt, Attempt{Number: attempt, DisableFaults: disableFaults, CheckpointPath: ckPrefix})
		if err == nil {
			rec.Status = StatusOK
			if disableFaults {
				rec.Status = StatusRecovered
			}
			result = res
			if res != nil {
				if b, merr := json.Marshal(res); merr == nil {
					rec.Result = b
				}
			}
			break
		}
		class := Classify(err)
		if ctx.Err() != nil {
			// The sweep was hard-canceled: whatever the run reported
			// (deadline, watchdog racing the abort), the point is
			// incomplete, not failed.
			class = ClassCanceled
		}
		if rec.Error == "" {
			// Keep the *first* failure as the root cause; for a point that
			// later recovers this preserves the original diag snapshot.
			rec.Class = class
			rec.Error = err.Error()
			rec.Diag = SnapshotOf(err)
		}
		faulted := pt.Faulty && !disableFaults
		if class == ClassCanceled {
			rec.Status = StatusCanceled
			break
		}
		if !retryable(class, faulted) || attempt+1 >= p.opt.MaxAttempts {
			rec.Status = StatusFailed
			break
		}
		if faulted && class != ClassTimeout {
			disableFaults = true
		}
		delay := p.jitter(p.backoff(attempt))
		if p.opt.Logger != nil {
			p.opt.Logger.Warn("point retry", obs.KeyPoint, pt.ID, obs.KeySpecHash, rec.SpecHash,
				"attempt", attempt+1, "error", err.Error(), "delay", delay.String())
		}
		if !sleepCtx(ctx, delay) {
			rec.Status = StatusCanceled
			break
		}
	}
	rec.Seconds = time.Since(start).Seconds()
	if ckPrefix != "" && rec.Status.Terminal() && rec.Status != StatusFailed {
		// The point is done; its checkpoints are dead weight. (Failed
		// points keep theirs for post-mortem restore; canceled points
		// keep theirs so a resumed sweep continues mid-run.)
		removeCheckpoints(ckPrefix)
	}
	if p.opt.Journal != nil {
		if jerr := p.opt.Journal.Append(rec); jerr != nil && p.opt.Logger != nil {
			p.opt.Logger.Warn("journal append failed", obs.KeyPoint, pt.ID, "error", jerr.Error())
		}
	}
	if p.opt.Logger != nil {
		lvl := slog.LevelInfo
		if rec.Status == StatusFailed {
			lvl = slog.LevelError
		}
		p.opt.Logger.Log(ctx, lvl, "point done",
			obs.KeyPoint, pt.ID, obs.KeySpecHash, rec.SpecHash,
			"status", string(rec.Status), "attempts", rec.Attempts,
			"seconds", rec.Seconds, "error", rec.Error)
	}
	ev := Event{Kind: EventDone, Point: pt.ID, Attempt: rec.Attempts, Record: rec, Result: result}
	if rec.Status == StatusFailed || rec.Status == StatusCanceled {
		ev.Err = errors.New(rec.Error)
	}
	p.emit(ev)
	return rec
}

// attempt runs one try under the per-point deadline with panic isolation.
func (p *pool) attempt(ctx context.Context, pt Point, att Attempt) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			// A panic that escaped Point.Run (core.Run recovers its own):
			// isolate it so sibling workers keep running.
			res, err = nil, &diag.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	actx, cancel := context.WithTimeout(ctx, p.timeout(pt))
	defer cancel()
	return pt.Run(actx, att)
}

// checkpointPrefix returns the point's stable checkpoint path prefix
// under Options.CheckpointDir ("" when checkpointing is off). The prefix
// is derived from the point ID alone so a re-run of the same sweep finds
// the previous process's checkpoints.
func (p *pool) checkpointPrefix(pt Point) string {
	return CheckpointPrefix(p.opt.CheckpointDir, pt.ID)
}

// CheckpointPrefix returns the stable checkpoint path prefix a pool with
// Options.CheckpointDir set hands the point via Attempt.CheckpointPath
// ("" when dir is empty). A point's checkpoint files are
// CheckpointFile(prefix, label), one per simulation label, and
// CheckpointGlob(prefix) matches all of them: the sweep service ships
// them with lease renewals.
func CheckpointPrefix(dir, id string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, sanitizeName(id))
}

// CheckpointFile is the checkpoint file of the simulation labelled label
// in the point whose prefix is prefix: prefix.<label>.ckpt.
func CheckpointFile(prefix, label string) string {
	return prefix + "." + sanitizeName(label) + ".ckpt"
}

// CheckpointGlob is the filepath.Glob pattern matching every
// CheckpointFile under prefix.
func CheckpointGlob(prefix string) string {
	return prefix + ".*.ckpt"
}

// sanitizeName maps a point ID or run label onto a safe filename fragment.
func sanitizeName(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, id)
}

// removeCheckpoints deletes every checkpoint file under the prefix.
func removeCheckpoints(prefix string) {
	matches, err := filepath.Glob(CheckpointGlob(prefix))
	if err != nil {
		return
	}
	for _, m := range matches {
		_ = os.Remove(m)
	}
}

// jitter randomizes a backoff delay: d*(1-j) + U[0, d*j). With jitter
// disabled (or a zero delay) it returns d unchanged. Randomizing each
// worker's schedule keeps concurrent retries of the same transient fault
// from synchronizing into a retry storm.
func (p *pool) jitter(d time.Duration) time.Duration {
	if p.jitterRng == nil || d <= 0 {
		return d
	}
	j := p.opt.BackoffJitter
	if j > 1 {
		j = 1
	}
	span := float64(d) * j
	p.jitterMu.Lock()
	u := p.jitterRng.Float()
	p.jitterMu.Unlock()
	return time.Duration(float64(d) - span + u*span)
}

// backoff returns the capped exponential delay before retrying after the
// attempt-th try (0-based).
func (p *pool) backoff(attempt int) time.Duration {
	d := p.opt.BackoffBase
	for i := 0; i < attempt && d < p.opt.BackoffCap; i++ {
		d *= 2
	}
	if d > p.opt.BackoffCap {
		d = p.opt.BackoffCap
	}
	return d
}

// sleepCtx sleeps for d unless ctx ends first; reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
