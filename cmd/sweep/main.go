// Command sweep regenerates the paper's tables and figures. Each figure is
// a set of simulations whose rows are printed in the same series the paper
// plots (normalized execution-time breakdowns, read-stall magnifications,
// MSHR occupancy distributions, characterization tables).
//
// A sweep is a job on the sweep service (internal/sweepsvc). A local sweep
// runs the sweepd manager and -parallel workers in process; -remote
// submits the same grid to a sweepd fleet. Either way every point runs
// under internal/runner's supervision (per-point deadlines, panic
// isolation, classified retries) and finished points print in submission
// order. -journal is the manager's durable ledger: running the same grid
// again on the same file resumes it, and points already done there are
// served from its result cache. Ctrl-C drains (in-flight points finish
// and are recorded); a second Ctrl-C aborts them.
//
// Examples:
//
//	sweep -list
//	sweep -fig fig2a
//	sweep -fig fig6 -scale quick
//	sweep -all | tee experiments_output.txt
//	sweep -all -json results.json
//	sweep -all -parallel 4 -journal sweep.jsonl     # 4 workers; rerun to resume
//	sweep -fig fig2a,fig3a -telemetry-dir series/   # one JSONL series per run point
//	sweep -remote http://host:8044 -all             # submit to a sweepd fleet
//
// With -remote the grid is executed by a sweepd server's (cmd/sweepd)
// sweepworker fleet, and points whose spec hash is already in the server's
// content-addressed result cache return instantly. -merged writes the
// canonical merged-results JSON, which is byte-identical between a local
// run and a distributed remote run of the same grid (the chaos harness's
// acceptance check).
//
// Exit status: 0 when every point succeeds, 1 when nothing succeeds, 2 on
// flag/usage errors, 3 on partial success (some points completed, some
// failed or were interrupted; partial results are still written).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/sweepsvc"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// logger is the process-wide structured logger (stderr JSON; stdout stays
// reserved for rendered results). logf bridges printf-style progress lines
// into it at info level.
var (
	logger *slog.Logger
	logf   func(format string, args ...any)
)

func fatal(err error) {
	logger.Error("fatal", "error", err.Error())
	os.Exit(1)
}

// pointJSON is the machine-readable form of one run point, written by
// -json. It carries per-point status, so partially-failed and interrupted
// sweeps still produce usable output. Resumed marks a point served from
// the ledger or the result cache rather than run by this sweep.
type pointJSON struct {
	ID       string          `json:"id"`
	Title    string          `json:"title,omitempty"`
	Status   runner.Status   `json:"status"`
	Class    runner.Class    `json:"class,omitempty"`
	Error    string          `json:"error,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Resumed  bool            `json:"resumed,omitempty"`
	Seconds  float64         `json:"seconds"`
	Reports  []*stats.Report `json:"reports,omitempty"`
}

func main() {
	logger = obs.Init("sweep")
	logf = obs.Printf(logger, slog.LevelInfo)
	var (
		fig          = flag.String("fig", "", "experiment id(s) to run, comma-separated (see -list)")
		all          = flag.Bool("all", false, "run every experiment")
		list         = flag.Bool("list", false, "list experiment ids")
		scale        = flag.String("scale", "default", "workload scale: default or quick")
		timeout      = flag.Duration("timeout", 0, "wall-clock bound on the whole sweep (0 = none)")
		jsonPath     = flag.String("json", "", "also write results as JSON to this file (\"-\" = stdout)")
		telemetryDir = flag.String("telemetry-dir", "", "write one JSONL telemetry series per run point into this directory")
		telInterval  = flag.Uint64("telemetry-interval", 0, "telemetry sampling interval in cycles (0 = config default, 100k)")

		remote      = flag.String("remote", "", "submit the grid to this sweepd server instead of running locally (e.g. http://host:8044)")
		jobID       = flag.String("job", "", "job id (default: derived from the grid locally, server-assigned with -remote)")
		mergedPath  = flag.String("merged", "", "write canonical merged results JSON to this file (local and -remote runs of the same grid produce identical bytes)")
		spanLogPath = flag.String("span-log", "", "with -remote: append the client's job span to this JSONL span log (stitch with sweeptrace)")

		parallel     = flag.Int("parallel", 1, "in-process workers (points run concurrently; outcomes stay deterministic)")
		serial       = flag.Bool("serial", false, "run each figure's simulations one at a time (a one-worker per-figure pool; default: up to GOMAXPROCS workers)")
		journalPath  = flag.String("journal", "", "durable JSONL sweep ledger; running the same grid on it again resumes the sweep")
		ckDir        = flag.String("checkpoint-dir", "", "checkpoint running points under this directory; interrupted or retried points resume from their last capture instead of restarting")
		retries      = flag.Int("retries", 2, "retries per point for retryable failures (a point runs at most retries+1 times)")
		pointTimeout = flag.Duration("point-timeout", 0, "per-point wall-clock deadline (0 = derived from the scale's cycle budget)")
		inject       = flag.String("inject", "", "comma-separated synthetic failure points for chaos testing: panic, livelock")

		latchPolicy = flag.String("latch-policy", "", "overlay a latch policy on every experiment: plain, hints or htm (empty = each experiment's own)")

		faultSeed  = flag.Uint64("fault-seed", 1, "fault injector seed")
		faultMesh  = flag.Float64("fault-mesh", 0, "per-message mesh delay probability (0 disables)")
		faultNACK  = flag.Float64("fault-nack", 0, "per-request directory NACK probability (0 disables)")
		faultStall = flag.Float64("fault-stall", 0, "per-access transient memory stall probability (0 disables)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalUsage("unexpected arguments: %v", flag.Args())
	}

	if *list {
		fmt.Println("id         description")
		for _, e := range experiments.All {
			fmt.Printf("%-10s %s\n", e.ID, e.Notes)
		}
		return
	}

	sc := experiments.DefaultScale
	switch *scale {
	case "default":
	case "quick":
		sc = experiments.QuickScale
	default:
		fatalUsage("unknown scale %q (default or quick)", *scale)
	}
	if *serial {
		sc.Parallel = 1
	}
	if *latchPolicy != "" {
		lp, ok := config.ParseLatchPolicy(*latchPolicy)
		if !ok {
			fatalUsage("unknown latch policy %q (plain, hints or htm)", *latchPolicy)
		}
		sc.LatchPolicy = lp
	}
	if *faultMesh > 0 || *faultNACK > 0 || *faultStall > 0 {
		sc.Faults = config.FaultProfile(*faultSeed, *faultMesh, *faultNACK, *faultStall)
		if err := sc.Faults.Validate(); err != nil {
			fatalUsage("%v", err)
		}
	}
	if *telemetryDir != "" {
		if err := os.MkdirAll(*telemetryDir, 0o777); err != nil {
			// Not a usage error: the path was valid, creating it failed.
			fatal(fmt.Errorf("creating -telemetry-dir %s: %v", *telemetryDir, err))
		}
	} else if *telInterval != 0 {
		fatalUsage("-telemetry-interval needs -telemetry-dir")
	}
	if *parallel < 1 {
		fatalUsage("-parallel must be >= 1")
	}
	sc.Logger = logger

	// Select the experiments to run. fig1 is a parameter table, not a
	// simulation, so it prints directly and never enters the pool.
	var selected []experiments.Experiment
	switch {
	case *all:
		fmt.Print(experiments.Fig1Params().Render())
		fmt.Println()
		selected = experiments.All
	case *fig != "":
		byID := make(map[string]experiments.Experiment, len(experiments.All))
		for _, e := range experiments.All {
			byID[e.ID] = e
		}
		seen := map[string]bool{}
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			if id == "" || seen[id] {
				continue
			}
			seen[id] = true
			if id == "fig1" {
				fmt.Print(experiments.Fig1Params().Render())
				continue
			}
			e, ok := byID[id]
			if !ok {
				fatalUsage("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
		if len(selected) == 0 {
			return // only fig1 requested
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *remote != "" {
		if *inject != "" || *telemetryDir != "" || *journalPath != "" {
			fatalUsage("-inject/-telemetry-dir/-journal are local-run knobs; not available with -remote")
		}
	} else if *spanLogPath != "" {
		fatalUsage("-span-log needs -remote (local sweeps have no cross-process trace)")
	}

	// Per-point telemetry: one JSONL series per run point, named with the
	// collision-proof id/label hash so shared labels cannot clobber each
	// other's series.
	var perPoint func(id string, esc experiments.Scale) experiments.Scale
	if *telemetryDir != "" {
		perPoint = func(id string, esc experiments.Scale) experiments.Scale {
			esc.Telemetry = func(label string) *telemetry.Pipeline {
				path := filepath.Join(*telemetryDir, telemetry.SeriesFileName(id, label))
				sink, err := telemetry.OpenJSONLSink(path)
				if err != nil {
					logger.Warn("telemetry series dropped", obs.KeyPoint, id, "error", err.Error())
					return nil
				}
				pipe := telemetry.New(*telInterval)
				pipe.SetTag("fig", id)
				pipe.Attach(sink, nil)
				return pipe
			}
			return esc
		}
	}

	points := experiments.Points(selected, sc, perPoint)
	if *telemetryDir != "" {
		for i := range points {
			points[i].Series = filepath.Join(*telemetryDir, points[i].ID+"__*.jsonl")
		}
	}
	injected, err := injectedPoints(*inject)
	if err != nil {
		fatalUsage("%v", err)
	}
	points = append(points, injected...)

	// The job: each point's spec bytes are its content address on the
	// ledger and in the result cache (sc.SpecJSON for an experiment).
	req := &sweepsvc.SubmitRequest{JobID: *jobID, Provenance: sweepProvenance(*faultSeed)}
	byHash := make(map[string]runner.Point, len(points))
	for _, pt := range points {
		spec, err := json.Marshal(pt.Spec)
		if err != nil {
			fatal(fmt.Errorf("spec of %s: %v", pt.ID, err))
		}
		jp := sweepsvc.JobPoint{ID: pt.ID, Spec: spec, MaxCycles: pt.MaxCycles, Faulty: pt.Faulty}
		req.Points = append(req.Points, jp)
		byHash[jp.Hash()] = pt
	}
	notes := make(map[string]string, len(selected))
	for _, e := range selected {
		notes[e.ID] = e.Notes
	}
	out := outputs{notes: notes, jsonPath: *jsonPath, mergedPath: *mergedPath}

	if *remote != "" {
		os.Exit(runRemote(*remote, req, out, *timeout, *spanLogPath))
	}

	// The in-process manager logs only its warnings and errors (ledger
	// replay, lease expiries); drive logs each point's progress.
	loc, err := sweepsvc.NewLocal(sweepsvc.ManagerOptions{
		LedgerPath: *journalPath,
		Logger:     obs.NewLogger(os.Stderr, "sweep", max(slog.LevelWarn, obs.LevelFromEnv())).With("subsystem", "manager"),
	})
	if err != nil {
		fatal(err)
	}
	if req.JobID == "" {
		req.JobID = sweepsvc.GridJobID(req.Points)
	}

	// Interrupt handling: the first signal drains (workers lease nothing
	// more; in-flight points finish and are recorded), the second aborts
	// in-flight points.
	hardCtx, hardCancel := context.WithCancel(context.Background())
	if *timeout > 0 {
		hardCtx, hardCancel = context.WithTimeout(context.Background(), *timeout)
	}
	drainCtx, drainCancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		logger.Warn("interrupt: draining in-flight points; interrupt again to abort them")
		drainCancel()
		<-sigc
		logger.Warn("interrupt: aborting in-flight points")
		hardCancel()
	}()

	var workersDone <-chan struct{}
	start := func() <-chan struct{} {
		workersDone = loc.Start(hardCtx, req.JobID, *parallel, func(w *sweepsvc.Worker) {
			w.Build = func(jp *sweepsvc.JobPoint) (runner.Point, error) {
				if pt, ok := byHash[jp.Hash()]; ok {
					return pt, nil
				}
				return runner.Point{}, fmt.Errorf("point %s is not in this sweep's grid", jp.ID)
			}
			w.PointTimeout = *pointTimeout
			w.Retries = *retries
			w.CheckpointDir = *ckDir
			w.Drain = drainCtx
			w.Logger = logger
			w.Provenance = req.Provenance
		})
		return workersDone
	}
	code := drive(context.Background(), loc.Client, req, start, nil, out)
	hardCancel()
	if workersDone != nil {
		<-workersDone
	}
	if err := loc.Close(); err != nil {
		logger.Warn("ledger close failed", "error", err.Error())
	}
	drainCancel()
	os.Exit(code)
}

// sweepProvenance is the provenance record the sweep submits with its
// job; local workers stamp it, specialized per point, on every record.
func sweepProvenance(seed uint64) *obs.Provenance {
	p := obs.Collect("sweep", os.Args[1:])
	p.Seed = seed
	return p
}

// injectedPoints builds the synthetic chaos points requested by -inject:
// "panic" crashes inside the point (exercising panic isolation), and
// "livelock" fails with a fault-injected watchdog trip until the pool
// retries it with faults disabled (exercising classified retry and
// recovered_after_fault journaling).
func injectedPoints(kinds string) ([]runner.Point, error) {
	if kinds == "" {
		return nil, nil
	}
	var pts []runner.Point
	for _, k := range strings.Split(kinds, ",") {
		switch strings.TrimSpace(k) {
		case "panic":
			pts = append(pts, runner.Point{
				ID:   "inject-panic",
				Spec: "inject-panic",
				Run: func(context.Context, runner.Attempt) (any, error) {
					// Crash inside a real machine so the failure carries a
					// machine snapshot, exactly like a model invariant blowing
					// up mid-run.
					cfg := config.Default()
					cfg.Nodes = 1
					sys, err := core.NewSystem(cfg)
					if err != nil {
						return nil, err
					}
					sys.AddProcess(0, panicStream{})
					_, err = sys.Run(core.RunOptions{Label: "inject-panic", MaxCycles: 1_000_000})
					return nil, err
				},
			})
		case "livelock":
			pts = append(pts, runner.Point{
				ID:     "inject-livelock",
				Spec:   "inject-livelock",
				Faulty: true,
				Run: func(_ context.Context, att runner.Attempt) (any, error) {
					if att.DisableFaults {
						return &experiments.Result{
							ID:    "inject-livelock",
							Title: "synthetic fault-injected livelock (clean retry succeeded)",
						}, nil
					}
					return nil, livelockError()
				},
			})
		default:
			return nil, fmt.Errorf("unknown -inject kind %q (panic or livelock)", k)
		}
	}
	return pts, nil
}

// panicStream panics on its first instruction, standing in for an internal
// invariant violation inside the machine model.
type panicStream struct{}

func (panicStream) Next(*trace.Instr) bool { panic("injected panic point") }

// livelockError fabricates the failure a fault-induced livelock produces:
// a watchdog ProgressError carrying a real machine snapshot.
func livelockError() error {
	pe := &core.ProgressError{Cycle: 2_000_000, LastProgress: 0, Window: 2_000_000}
	cfg := config.Default()
	cfg.Nodes = 1
	if sys, err := core.NewSystem(cfg); err == nil {
		pe.Snapshot = sys.Snapshot("watchdog")
	}
	return pe
}

// runRemote submits the grid to a sweepd server and drives it to
// completion; it returns the process exit code.
//
// The submission roots the job's distributed trace: drive mints a "job"
// span (recorded to spanLogPath when set) whose context rides the
// SubmitRequest, so sweepd's submit/lease/merge spans — and through the
// lease responses every worker's run spans — all share one trace ID.
func runRemote(base string, req *sweepsvc.SubmitRequest, out outputs, timeout time.Duration, spanLogPath string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var spans *obs.SpanLog
	if spanLogPath != "" {
		var err error
		spans, err = obs.OpenSpanLog(spanLogPath, "sweep")
		if err != nil {
			logger.Error("span log", "error", err.Error())
			return 1
		}
		defer spans.Close()
	}
	cl := &sweepsvc.Client{
		Base: base,
		OnRetry: func(op string, err error, delay time.Duration) {
			logf("%s failed (%v); retrying in %v", op, err, delay)
		},
	}
	return drive(ctx, cl, req, nil, spans, out)
}

// outputs is what drive writes besides the log: the per-experiment notes
// printed after each result, and the -json and -merged paths.
type outputs struct {
	notes      map[string]string
	jsonPath   string
	mergedPath string
}

// drive is the one sweep driver, for local and -remote runs alike. It
// submits the grid through cl, prints each finished point as soon as it
// and every point submitted before it are done, and once the job is over
// writes -json and -merged and returns the exit code (0 complete, 3
// partial, 1 nothing). start, when non-nil, starts the local workers after
// the submit and returns a channel closed once all of them have returned
// (a drain, an abort or -timeout); the wait ends then too, and drive
// reports whatever finished.
func drive(ctx context.Context, cl *sweepsvc.Client, req *sweepsvc.SubmitRequest, start func() <-chan struct{}, spans *obs.SpanLog, out outputs) int {
	// Root span for the whole job. Emit even with no span log (nil-safe):
	// the minted context still propagates, so the server-side tree hangs
	// together and only the client-side root record is absent.
	jobStart := time.Now()
	jobSC := spans.Emit(obs.SpanContext{}, "job", jobStart, jobStart, nil)
	req.Trace = &jobSC
	req.Provenance.Trace = jobSC.Trace

	st, err := cl.Submit(ctx, req)
	if err != nil {
		logger.Error("submit failed", "error", err.Error())
		return 1
	}
	job := st.JobID
	logger.Info("job submitted", obs.KeyJob, job, "points", st.Total,
		"done", st.Done, "cached", st.Cached, obs.KeyTrace, jobSC.Trace)
	// Points already over at submit are resumed, not run by this sweep:
	// the done ones are cached, the failed ones kept from the ledger.
	resumed := st.Cached + st.Failed

	initial, err := cl.JobStatus(ctx, job, true)
	if err != nil {
		logger.Error("status fetch failed", "error", err.Error())
		return 1
	}
	pr := &printer{cl: cl, job: job, notes: out.notes, finished: map[string]bool{}, resumed: map[string]bool{}}
	for _, jp := range req.Points {
		pr.order = append(pr.order, jp.ID)
	}
	for _, ps := range initial.Points {
		if ps.Status.Terminal() {
			pr.finished[ps.ID], pr.resumed[ps.ID] = true, true
		}
	}
	pr.flush(ctx)

	waitCtx := ctx
	if start != nil {
		done := start()
		var cancel context.CancelFunc
		waitCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			select {
			case <-done:
				cancel()
			case <-waitCtx.Done():
			}
		}()
	}
	st, err = cl.WaitJob(waitCtx, job, func(ev sweepsvc.Event) {
		switch ev.Status {
		case sweepsvc.PointLeased:
			logf("%s: leased to %s", ev.ID, ev.Worker)
		case sweepsvc.PointDone:
			if ev.Cached {
				logf("%s: done (result cache)", ev.ID)
			} else {
				logf("%s: done on %s", ev.ID, ev.Worker)
			}
		case sweepsvc.PointFailed:
			logf("%s: failed on %s: %s", ev.ID, ev.Worker, ev.Error)
		case sweepsvc.PointPending:
			if ev.Worker == "" && ev.Seq > 0 {
				logf("%s: lease expired; re-queued", ev.ID)
			}
		}
		if ev.Status.Terminal() {
			pr.finished[ev.ID] = true
			pr.flush(ctx)
		}
	})
	if err != nil {
		if ctx.Err() != nil || waitCtx.Err() == nil {
			logger.Error("wait failed", "error", err.Error())
			return 1
		}
		// Every local worker has returned: report what finished.
		if st, err = cl.JobStatus(ctx, job, false); err != nil {
			logger.Error("status fetch failed", "error", err.Error())
			return 1
		}
	}

	res, err := cl.Results(ctx, job)
	if err != nil {
		logger.Error("results fetch failed", "error", err.Error())
		return 1
	}
	pr.finish(res)

	code := 0
	switch {
	case st.Failed == 0 && st.Done == st.Total:
	case st.Done > 0:
		code = 3
	default:
		code = 1
	}
	if out.jsonPath != "" {
		if werr := writeJSON(out.jsonPath, pr.order, res, pr.resumed); werr != nil {
			logger.Error("writing -json output failed", "error", werr.Error())
			if code == 0 {
				code = 1
			}
		}
	}
	if out.mergedPath != "" {
		if werr := writeMerged(out.mergedPath, res.Points); werr != nil {
			logger.Error("writing -merged output failed", "error", werr.Error())
			if code == 0 {
				code = 1
			}
		}
	}

	// Re-record the job root with its true duration now the job is over
	// (the stitcher keeps the later record; see obs.Stitch).
	if jobSC.Valid() {
		spans.Record(obs.Span{
			Trace: jobSC.Trace, ID: jobSC.Span, Name: "job",
			Start: jobStart.UnixNano(), End: time.Now().UnixNano(),
			Attrs: map[string]string{obs.KeyJob: job, "exit": fmt.Sprint(code)},
		})
	}
	// Final summary: one structured line carrying the whole outcome and
	// the exit code (3 = partial/interrupted; see README "Exit codes").
	lvl := slog.LevelInfo
	if code != 0 {
		lvl = slog.LevelWarn
	}
	logger.Log(context.Background(), lvl, "sweep finished", obs.KeyJob, job,
		"done", st.Done, "resumed", resumed, "failed", st.Failed,
		"total", st.Total, obs.KeyExitCode, code)
	return code
}

// printer prints finished points to stdout in submission order, so the
// output depends neither on the worker count nor on local vs remote.
type printer struct {
	cl       *sweepsvc.Client
	job      string
	notes    map[string]string
	order    []string        // point ids in submission order
	next     int             // first point of order not yet printed
	finished map[string]bool // points known to be over
	resumed  map[string]bool // points over before the workers started
}

// flush prints every point from next on whose predecessors have all
// printed, fetching the job's results only when there is one to print.
// A failed fetch leaves the points for the next flush or finish.
func (pr *printer) flush(ctx context.Context) {
	if pr.next >= len(pr.order) || !pr.finished[pr.order[pr.next]] {
		return
	}
	res, err := pr.cl.Results(ctx, pr.job)
	if err != nil {
		return
	}
	byID := resultsByID(res)
	for pr.next < len(pr.order) && pr.finished[pr.order[pr.next]] {
		pr.print(byID[pr.order[pr.next]])
		pr.next++
	}
}

// finish prints every finished point not printed yet, in order, passing
// over points that never finished.
func (pr *printer) finish(res *sweepsvc.MergedResults) {
	byID := resultsByID(res)
	for ; pr.next < len(pr.order); pr.next++ {
		if mp := byID[pr.order[pr.next]]; mp.Status.Terminal() {
			pr.print(mp)
		}
	}
}

// print renders one finished point with its [notes, seconds] line; the
// log gets its recovery or failure detail.
func (pr *printer) print(mp sweepsvc.MergedPoint) {
	var secs float64
	if mp.Record != nil {
		secs = mp.Record.Seconds
	}
	var r experiments.Result
	if len(mp.Result) > 0 && json.Unmarshal(mp.Result, &r) == nil && r.ID != "" {
		fmt.Print(r.Render())
		fmt.Printf("   [%s, %.1fs]\n\n", pr.notes[mp.ID], secs)
	}
	if rec := mp.Record; rec != nil {
		switch rec.Status {
		case runner.StatusRecovered:
			logf("%s: recovered after disabling the fault profile (%d attempts; original failure: %s)",
				mp.ID, rec.Attempts, rec.Error)
		case runner.StatusFailed:
			logf("%s: failed (%s): %s", mp.ID, rec.Class, rec.Error)
			if rec.Diag != nil {
				fmt.Fprint(os.Stderr, rec.Diag.String())
			}
		}
	}
}

func resultsByID(res *sweepsvc.MergedResults) map[string]sweepsvc.MergedPoint {
	byID := make(map[string]sweepsvc.MergedPoint, len(res.Points))
	for _, mp := range res.Points {
		byID[mp.ID] = mp
	}
	return byID
}

func writeMerged(path string, pts []sweepsvc.MergedPoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sweepsvc.WriteMerged(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fatalUsage reports a flag/usage error: message, usage text, exit 2.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// writeJSON writes one pointJSON per submitted point, in submission order
// ("-" = stdout), so the output reflects everything known about the sweep
// even when it only partially succeeded: a point still pending is
// skipped, one still leased was canceled.
func writeJSON(path string, order []string, res *sweepsvc.MergedResults, resumed map[string]bool) error {
	byID := resultsByID(res)
	results := make([]pointJSON, 0, len(order))
	for _, id := range order {
		mp := byID[id]
		pj := pointJSON{ID: id, Status: runner.StatusSkipped, Resumed: resumed[id]}
		switch rec := mp.Record; {
		case rec != nil:
			pj.Status, pj.Class, pj.Error = rec.Status, rec.Class, rec.Error
			pj.Attempts, pj.Seconds = rec.Attempts, rec.Seconds
		case mp.Status == sweepsvc.PointLeased:
			pj.Status = runner.StatusCanceled
		}
		if len(mp.Result) > 0 {
			var r experiments.Result
			if err := json.Unmarshal(mp.Result, &r); err == nil {
				pj.Title = r.Title
				pj.Reports = r.Reports
			}
		}
		results = append(results, pj)
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
