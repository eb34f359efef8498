package sweepsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// Worker pulls leased points from sweepd and runs them through
// internal/runner's supervision: per-point deadlines, panic isolation,
// classified failures, capped-backoff retries with jitter. While a point
// runs, a heartbeat goroutine renews the lease (piggybacking the worker's
// self-monitoring sample); a lost lease cancels the in-flight point — its
// spec was re-issued elsewhere — and the terminal record is reported
// idempotently either way.
type Worker struct {
	Client *Client
	Name   string
	// Build turns a leased point's spec into a runnable runner.Point
	// (cmd/sweepworker wires experiments.PointFromSpec).
	Build func(p *JobPoint) (runner.Point, error)
	// HeartbeatEvery is the lease renewal period (0 = DefaultLeaseTTL/4).
	HeartbeatEvery time.Duration
	// PointTimeout is the per-point wall-clock deadline (0 = derived from
	// the point's cycle budget, as runner.Options).
	PointTimeout time.Duration
	// Retries bounds the retries of a point's retryable failures: a point
	// runs at most Retries+1 times (0 = no retries).
	Retries int
	// IdleSleep is the poll interval when no work is pending (0 = server's
	// RetryAfter hint, then 500ms).
	IdleSleep time.Duration
	// CheckpointDir, when non-empty, makes points preemptible and
	// migratable: runs checkpoint under it (runner.Options.CheckpointDir),
	// heartbeats ship each new capture to sweepd, and a lease that arrives
	// carrying another worker's checkpoints installs them here so the run
	// resumes mid-flight instead of restarting at cycle zero.
	CheckpointDir string
	// Logger, when non-nil, logs the worker's lifecycle with the stable
	// obs keys (point, spec_hash, worker, trace); the worker adds its own
	// name to every line. Each point logs one "run start" line here and
	// one "point done" line from its runner pool.
	Logger *slog.Logger
	// Spans, when non-nil, records the worker-side half of each point's
	// span tree (run + heartbeat/checkpoint-ship children), parented
	// under the lease span the server advertised — the cross-process
	// stitch point. Run spans are written twice under one ID (start
	// marker, then completion) so a SIGKILLed worker still leaves a
	// connected tree.
	Spans *obs.SpanLog
	// Provenance, when non-nil, is specialized per point (spec hash,
	// worker name, trace ID) and stamped on every reported record.
	Provenance *obs.Provenance
	// Drain, when non-nil and done, stops the worker leasing new points
	// while a point already running finishes and is reported (graceful
	// SIGINT semantics). The ctx passed to Run is the hard stop that also
	// aborts the running point.
	Drain context.Context

	// Self samples the worker's own health; each heartbeat carries the
	// latest sample to sweepd's /metrics page. Points feeds its rate
	// metric automatically.
	Self *telemetry.SelfCollector

	job string       // lease only this job's points (set by Local.Start; "" = any)
	log *slog.Logger // Logger with the worker's name (set by Run; never nil)

	pointsDone atomic.Uint64

	simMu     sync.Mutex
	simTotals map[string]uint64
}

// PointsDone returns the cumulative completed-point counter (the self
// collector's Points function).
func (w *Worker) PointsDone() uint64 { return w.pointsDone.Load() }

// SimCounters returns a copy of the cumulative simulation counters
// (lock-table contention, HTM elision lifecycle) accumulated from this
// worker's completed points — the self collector's SimCounters function,
// so each heartbeat carries them to sweepd's /metrics page. (Checkpoint
// activity rides every SelfSample directly; see telemetry.CollectSelf.)
func (w *Worker) SimCounters() map[string]uint64 {
	w.simMu.Lock()
	defer w.simMu.Unlock()
	out := make(map[string]uint64, len(w.simTotals))
	for k, v := range w.simTotals {
		out[k] = v
	}
	return out
}

// accumulateSim folds a completed point's report counters into the
// worker's cumulative simulation totals. Records whose result payload is
// missing or unparsable are skipped silently — these metrics are
// best-effort observability, never a reason to fail a point.
func (w *Worker) accumulateSim(rec *runner.Record) {
	if len(rec.Result) == 0 {
		return
	}
	var res struct {
		Reports []struct {
			LatchAcquires, LatchContended, LatchHandoffs uint64
			HTMBegins, HTMCommits, HTMFallbacks          uint64
			HTMConflictAborts, HTMCapacityAborts         uint64
			HTMExplicitAborts                            uint64
		}
	}
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		return
	}
	w.simMu.Lock()
	defer w.simMu.Unlock()
	if w.simTotals == nil {
		w.simTotals = make(map[string]uint64)
	}
	for _, r := range res.Reports {
		w.simTotals["locktable_acquires_total"] += r.LatchAcquires
		w.simTotals["locktable_contended_acquires_total"] += r.LatchContended
		w.simTotals["locktable_handoffs_total"] += r.LatchHandoffs
		w.simTotals["htm_begins_total"] += r.HTMBegins
		w.simTotals["htm_commits_total"] += r.HTMCommits
		w.simTotals["htm_fallbacks_total"] += r.HTMFallbacks
		w.simTotals["htm_aborts_conflict_total"] += r.HTMConflictAborts
		w.simTotals["htm_aborts_capacity_total"] += r.HTMCapacityAborts
		w.simTotals["htm_aborts_explicit_total"] += r.HTMExplicitAborts
	}
}

// discard is the logger of a Worker without one: it drops every level.
var discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt32)}))

// Run leases, executes and reports points until ctx ends or Drain fires.
// Transport failures never kill the worker — every call path retries or
// re-leases.
func (w *Worker) Run(ctx context.Context) error {
	if w.Build == nil {
		return errors.New("sweepsvc: worker: Build is required")
	}
	if w.Name == "" {
		return errors.New("sweepsvc: worker: Name is required")
	}
	w.log = w.Logger
	if w.log == nil {
		w.log = discard
	}
	w.log = w.log.With(obs.KeyWorker, w.Name)
	// idle ends the worker's waits between points early on a drain too.
	idle, stop := context.WithCancel(ctx)
	defer stop()
	if w.Drain != nil {
		defer context.AfterFunc(w.Drain, stop)()
	}
	// stopped reads Drain itself too: AfterFunc cancels idle only some
	// time after the drain fires.
	stopped := func() bool { return idle.Err() != nil || (w.Drain != nil && w.Drain.Err() != nil) }
	for !stopped() {
		lease, err := w.Client.Lease(ctx, &LeaseRequest{Worker: w.Name, Job: w.job})
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.log.Warn("lease failed; backing off", "error", err.Error())
			sleepCtx(idle, time.Second)
			continue
		}
		if lease.Point == nil {
			d := w.IdleSleep
			if d <= 0 {
				d = 500 * time.Millisecond
				if lease.RetryAfterMS > 0 {
					d = time.Duration(lease.RetryAfterMS) * time.Millisecond
				}
			}
			sleepCtx(idle, d)
			continue
		}
		if stopped() {
			// The drain fired while the lease was in flight: run nothing
			// more. The lease stays under this worker's name, so a local
			// worker of the same name takes it back at once on resume;
			// elsewhere it expires and is re-issued.
			break
		}
		w.runPoint(ctx, lease)
	}
	return ctx.Err()
}

// runPoint executes one leased point under supervision and reports its
// terminal record.
func (w *Worker) runPoint(ctx context.Context, lease *LeaseResponse) {
	jp := lease.Point
	hash := jp.Hash()
	// Attach this run under the lease span sweepd advertised; with no
	// propagated context the run roots its own trace (still stitchable
	// among this worker's spans, orphaned from the job's — truthful for
	// a partially instrumented fleet).
	leaseSC := obs.SpanContext{}
	if lease.Trace != nil {
		leaseSC = *lease.Trace
	}
	if !leaseSC.Valid() {
		leaseSC = obs.SpanContext{Trace: obs.NewID()}
	}
	runSC := obs.SpanContext{Trace: leaseSC.Trace, Span: obs.NewID()}
	runSpan := func(at time.Time, status string) obs.Span {
		return obs.Span{
			Trace: runSC.Trace, ID: runSC.Span, Parent: leaseSC.Span, Name: "run",
			Start: at.UnixNano(), End: at.UnixNano(),
			Attrs: map[string]string{
				obs.KeyPoint: jp.ID, obs.KeySpecHash: hash,
				obs.KeyWorker: w.Name, "status": status,
			},
		}
	}
	prov := func() *obs.Provenance {
		pv := w.Provenance.WithSpec(hash)
		if pv != nil {
			pv.Worker, pv.Trace = w.Name, runSC.Trace
		}
		return pv
	}
	pt, err := w.Build(jp)
	if err != nil {
		// A spec this worker cannot build (version skew, corrupt spec) is
		// a terminal failure — report it so the point doesn't ping-pong
		// between workers forever.
		w.log.Error("unbuildable spec", obs.KeyPoint, jp.ID, obs.KeySpecHash, hash, "error", err.Error())
		sp := runSpan(time.Now(), "unbuildable")
		w.Spans.Record(sp)
		w.report(ctx, hash, &runner.Record{
			ID: jp.ID, SpecHash: hash, Status: runner.StatusFailed,
			Attempts: 1, Class: runner.ClassError, Error: err.Error(),
			Provenance: prov(),
		}, runSC)
		return
	}
	if len(lease.Checkpoints) > 0 {
		// Taking over a preempted point: install the previous holder's
		// shipped checkpoints so the run resumes from its last capture.
		w.installCheckpoints(jp, lease.Checkpoints, lease.CheckpointCycle)
	}

	// Heartbeat while the point runs; a lost lease hard-cancels the run.
	runCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(runCtx, jp, hash, runSC, cancel)
	}()

	w.log.Info("run start", obs.KeyPoint, jp.ID, obs.KeySpecHash, hash,
		obs.KeyTrace, runSC.Trace, obs.KeySpan, runSC.Span)
	start := time.Now()
	// Start marker: if this process is SIGKILLed mid-run, the marker
	// keeps the (never-completed) run attached to the job's span tree.
	w.Spans.Record(runSpan(start, "running"))
	sum, err := runner.Run(runCtx, []runner.Point{pt}, runner.Options{
		Workers:       1,
		PointTimeout:  w.PointTimeout,
		MaxAttempts:   w.Retries + 1,
		CheckpointDir: w.CheckpointDir,
		Logger:        w.log,
	})
	cancel()
	<-hbDone
	if err != nil || len(sum.Records) == 0 {
		w.log.Error("pool setup failed", obs.KeyPoint, jp.ID, obs.KeySpecHash, hash, "error", fmt.Sprint(err))
		return
	}
	rec := sum.Records[0]
	rec.Provenance = prov()
	done := runSpan(start, string(rec.Status))
	done.End = time.Now().UnixNano()
	w.Spans.Record(done)
	if rec.Status == runner.StatusCanceled || rec.Status == runner.StatusSkipped {
		// The worker is shutting down or lost its lease mid-run: the point
		// is incomplete, not failed. Someone else (or this worker, later)
		// will re-run it; report nothing.
		return
	}
	w.pointsDone.Add(1)
	w.accumulateSim(rec)
	w.report(ctx, hash, rec, runSC)
}

// heartbeat renews the lease until ctx ends, canceling the run when the
// lease is lost. Each renewal ships the point's checkpoint files whose
// capture cycle advanced since the last successful renewal, so sweepd
// always holds a near-current resume image should this worker die.
func (w *Worker) heartbeat(ctx context.Context, jp *JobPoint, hash string, runSC obs.SpanContext, lost context.CancelFunc) {
	every := w.HeartbeatEvery
	if every <= 0 {
		every = DefaultLeaseTTL / 4
	}
	prefix := runner.CheckpointPrefix(w.CheckpointDir, jp.ID)
	shipped := make(map[string]uint64) // basename → last capture cycle delivered
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		req := &RenewRequest{Worker: w.Name, Hash: hash}
		if w.Self != nil {
			req.Self = w.Self.Sample()
		}
		var cycles map[string]uint64
		req.Checkpoints, cycles = collectCheckpoints(prefix, shipped)
		if _, err := w.Client.Renew(ctx, req); err != nil {
			if errors.Is(err, ErrLeaseLost) {
				w.log.Warn("lease lost; canceling in-flight run", obs.KeyPoint, jp.ID, obs.KeySpecHash, hash)
				lost()
				return
			}
			// Transport trouble: keep trying — the lease TTL is the real
			// deadline, and the client already retried below it. The
			// un-acknowledged checkpoints re-ship on the next beat.
			w.log.Warn("heartbeat failed", obs.KeyPoint, jp.ID, obs.KeySpecHash, hash, "error", err.Error())
			continue
		}
		attrs := map[string]string{obs.KeyPoint: jp.ID, obs.KeyWorker: w.Name}
		w.Spans.Instant(runSC, "heartbeat", time.Now(), attrs)
		if len(cycles) > 0 {
			maxCycle := uint64(0)
			for name, cyc := range cycles {
				shipped[name] = cyc
				if cyc > maxCycle {
					maxCycle = cyc
				}
			}
			w.Spans.Instant(runSC, "checkpoint-ship", time.Now(), map[string]string{
				obs.KeyPoint: jp.ID, obs.KeyWorker: w.Name,
				obs.KeyCycle: fmt.Sprintf("%d", maxCycle),
				"files":      fmt.Sprintf("%d", len(cycles)),
			})
		}
	}
}

// collectCheckpoints gathers the point's checkpoint files under prefix
// whose capture cycle advanced past the last shipped one. Returns nil
// when checkpointing is off or nothing is new. Files are read whole and
// validated — checkpoint.Write's atomic rename means a reader never sees
// a half-written file, but a validation pass here keeps a surprise from
// poisoning the server's stored set.
func collectCheckpoints(prefix string, shipped map[string]uint64) (map[string][]byte, map[string]uint64) {
	if prefix == "" {
		return nil, nil
	}
	matches, err := filepath.Glob(runner.CheckpointGlob(prefix))
	if err != nil {
		return nil, nil
	}
	var files map[string][]byte
	var cycles map[string]uint64
	for _, path := range matches {
		img, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		meta, _, err := checkpoint.Decode(img)
		if err != nil {
			continue
		}
		name := filepath.Base(path)
		if meta.Cycle <= shipped[name] && shipped[name] != 0 {
			continue
		}
		if files == nil {
			files = make(map[string][]byte)
			cycles = make(map[string]uint64)
		}
		files[name] = img
		cycles[name] = meta.Cycle
	}
	return files, cycles
}

// installCheckpoints writes lease-shipped checkpoint files into the
// worker's checkpoint directory so the supervised run resumes from them.
// Names are confined to the point's own checkpoint files (a plain
// basename matching runner.CheckpointGlob); a newer valid local file
// (this worker crashed and re-leased its own point) is never overwritten
// by an older shipped capture.
func (w *Worker) installCheckpoints(jp *JobPoint, ckpts map[string][]byte, fromCycle uint64) {
	log := w.log.With(obs.KeyPoint, jp.ID)
	if w.CheckpointDir == "" {
		log.Warn("lease shipped checkpoints but no checkpoint dir; restarting from scratch", "files", len(ckpts))
		return
	}
	if err := os.MkdirAll(w.CheckpointDir, 0o777); err != nil {
		log.Warn("checkpoint dir", "error", err.Error())
		return
	}
	pattern := filepath.Base(runner.CheckpointGlob(runner.CheckpointPrefix(w.CheckpointDir, jp.ID)))
	installed := 0
	for name, img := range ckpts {
		if ok, _ := filepath.Match(pattern, name); !ok || name != filepath.Base(name) {
			log.Warn("ignoring shipped checkpoint with unexpected name", "file", name)
			continue
		}
		meta, payload, err := checkpoint.Decode(img)
		if err != nil {
			log.Warn("shipped checkpoint corrupt", "file", name, "error", err.Error())
			continue
		}
		path := filepath.Join(w.CheckpointDir, name)
		if local, _, err := checkpoint.Read(path); err == nil && local.Cycle >= meta.Cycle {
			continue
		}
		if err := checkpoint.Write(path, meta, payload); err != nil {
			log.Warn("installing checkpoint", "file", name, "error", err.Error())
			continue
		}
		installed++
	}
	if installed > 0 {
		log.Info("taking over", obs.KeyCycle, fromCycle, "files", installed)
	}
}

// report delivers the record, retrying beyond the client's built-in policy
// until it lands or the worker stops: losing a computed result to a
// transient network blip would waste a whole simulation.
func (w *Worker) report(ctx context.Context, hash string, rec *runner.Record, runSC obs.SpanContext) {
	req := &ReportRequest{Worker: w.Name, Hash: hash, Record: rec}
	if runSC.Valid() {
		req.Trace = &runSC
	}
	for ctx.Err() == nil {
		resp, err := w.Client.Report(ctx, req)
		if err == nil {
			if resp.Duplicate {
				w.log.Info("duplicate completion (another worker got there first)", obs.KeyPoint, rec.ID, obs.KeySpecHash, hash)
			}
			return
		}
		w.log.Warn("report failed; retrying", obs.KeyPoint, rec.ID, obs.KeySpecHash, hash, "error", err.Error())
		sleepCtx(ctx, time.Second)
	}
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// WorkerID builds a default worker name from host identity.
func WorkerID(host string, pid int) string {
	return fmt.Sprintf("%s-%d", host, pid)
}
