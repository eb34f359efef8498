// Command sweepworker is a remote sweep worker: it pulls leased points
// from a sweepd server, runs them through internal/runner's supervision
// (per-point deadlines, panic isolation, classified failures, jittered
// capped-backoff retries), heartbeats at a quarter of the lease TTL sweepd
// grants to keep its leases alive, and reports results idempotently.
// SIGKILL it mid-point and the lease expires, the point is re-issued, and
// the sweep completes anyway — that is the chaos harness's whole job. A first SIGINT drains the worker (it
// leases nothing more and stops once the point in flight is reported); a
// second aborts that point.
//
// Each worker self-monitors (heap, goroutines, rusage, points/sec) in the
// style of cc-metric-collector's `self` collector. It samples on each
// heartbeat, and the sample rides the renewal to sweepd's /metrics page;
// with -metrics-addr (which also mounts /debug/pprof/) each scrape of the
// worker's own page takes a fresh sample too. Logs are
// structured JSON on stderr; -span-log records the worker-side half of
// each point's span tree (run, heartbeat, checkpoint-ship) for
// cmd/sweeptrace to stitch against sweepd's.
//
// Example:
//
//	sweepworker -server http://host:8044 -name w1
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sweepsvc"
	"repro/internal/telemetry"
)

func main() {
	var (
		server       = flag.String("server", "http://127.0.0.1:8044", "sweepd base URL")
		name         = flag.String("name", "", "worker name (default host-pid)")
		pointTimeout = flag.Duration("point-timeout", 0, "per-point wall-clock deadline (0 = derived from the point's cycle budget)")
		retries      = flag.Int("retries", 2, "retries per point for retryable failures (a point runs at most retries+1 times)")
		metricsAddr  = flag.String("metrics-addr", "", "also serve this worker's self-metrics (and /debug/pprof/) at this address (optional)")
		ckDir        = flag.String("checkpoint-dir", "", "checkpoint running points under this directory and ship captures with heartbeats, making points preemptible and migratable (optional)")
		spanLogPath  = flag.String("span-log", "", "append-only JSONL span log (worker half of each point's trace; stitch with sweeptrace)")
	)
	flag.Parse()
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = sweepsvc.WorkerID(host, os.Getpid())
	}
	// The Worker adds its name to its own lines; logger adds it to main's.
	wlog := obs.Init("sweepworker")
	logger := wlog.With(obs.KeyWorker, *name)

	var spans *obs.SpanLog
	if *spanLogPath != "" {
		var err error
		spans, err = obs.OpenSpanLog(*spanLogPath, "sweepworker/"+*name)
		if err != nil {
			logger.Error("fatal", "error", err.Error())
			os.Exit(1)
		}
		defer spans.Close()
	}

	w := &sweepsvc.Worker{
		Client:        &sweepsvc.Client{Base: strings.TrimRight(*server, "/")},
		Name:          *name,
		Build:         func(p *sweepsvc.JobPoint) (runner.Point, error) { return experiments.PointFromSpec(p.Spec) },
		PointTimeout:  *pointTimeout,
		Retries:       *retries,
		CheckpointDir: *ckDir,
		Logger:        wlog,
		Spans:         spans,
		Provenance:    obs.Collect("sweepworker", os.Args[1:]),
	}
	self := &telemetry.SelfCollector{Points: w.PointsDone, SimCounters: w.SimCounters}
	w.Self = self

	// The first SIGINT drains (no new leases; the point in flight finishes
	// and is reported), the second aborts it. SIGTERM aborts at once.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	ctx, abort := context.WithCancel(ctx)
	defer abort()
	drain, drainCancel := context.WithCancel(context.Background())
	defer drainCancel()
	w.Drain = drain
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		logger.Warn("interrupt: finishing the point in flight; interrupt again to abort it")
		drainCancel()
		<-sigc
		logger.Warn("interrupt: aborting the point in flight")
		abort()
	}()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
			var sb strings.Builder
			telemetry.PromBuildInfo(&sb, "sweepworker_build_info")
			telemetry.PromSelf(&sb, "sweepworker_", self.Sample(), map[string]string{"worker": *name})
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			fmt.Fprint(rw, sb.String())
		})
		telemetry.MountPprof(mux)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Warn("metrics server failed", "error", err.Error())
			}
		}()
	}

	logger.Info("pulling", "server", *server)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
	logger.Info("stopped", "points_done", w.PointsDone())
}
