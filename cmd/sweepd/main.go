// Command sweepd is the fault-tolerant sweep server: it accepts point
// grids over an HTTP/JSON job API, hands points to remote sweepworker
// processes under expiring leases, records every transition in a durable
// append-only ledger, and serves repeated points from its point table:
// every point ever done stays there, keyed by the runner spec hash, so it
// is the content-addressed result cache.
//
// Robustness properties:
//
//   - Restarting sweepd on the same -ledger replays the pending → leased →
//     done|failed state machine; in-flight jobs continue.
//   - A worker that stops heartbeating loses its lease after -lease-ttl and
//     the point is re-issued to another worker. Every other period derives
//     from -lease-ttl: workers heartbeat at a quarter of it, and idle
//     workers poll and sweepd scans for expired leases every eighth of it
//     (at most every 500ms).
//   - Duplicate completions (expired-lease races, retried RPCs) are deduped
//     by spec hash: the first terminal record wins, so every point is
//     recorded exactly once no matter how chaotic the fleet.
//   - A torn trailing ledger record (crash mid-write) is skipped with a
//     warning on replay, never a refusal to start.
//
// Example:
//
//	sweepd -addr :8044 -ledger sweepd.ledger.jsonl
//	sweepworker -server http://host:8044 &
//	sweep -remote http://host:8044 -all -scale quick
//
// /metrics exposes service counters plus each worker's self-monitoring
// sample (heap, goroutines, rusage, points/sec) as one Prometheus page;
// /debug/pprof/ exposes live runtime profiles. Logs are structured JSON
// lines on stderr (level via DBSIM_LOG_LEVEL); -span-log records the
// server-side half of every job's span tree for cmd/sweeptrace.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sweepsvc"
)

func main() {
	logger := obs.Init("sweepd")
	var (
		addr        = flag.String("addr", ":8044", "listen address")
		ledgerPath  = flag.String("ledger", "", "durable JSONL ledger (required; reopening replays it)")
		leaseTTL    = flag.Duration("lease-ttl", sweepsvc.DefaultLeaseTTL, "lease deadline horizon; a worker silent this long loses its point (workers heartbeat at a quarter of it; idle polls and the expired-lease scan run every eighth of it, at most 500ms)")
		spanLogPath = flag.String("span-log", "", "append-only JSONL span log (server half of each job's trace; stitch with sweeptrace)")
	)
	flag.Parse()
	if *ledgerPath == "" {
		fmt.Fprintln(os.Stderr, "sweepd: -ledger is required (durability is the point)")
		flag.Usage()
		os.Exit(2)
	}
	fatal := func(err error) {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}

	var spans *obs.SpanLog
	if *spanLogPath != "" {
		var err error
		spans, err = obs.OpenSpanLog(*spanLogPath, "sweepd")
		if err != nil {
			fatal(err)
		}
		defer spans.Close()
	}

	m, err := sweepsvc.NewManager(sweepsvc.ManagerOptions{
		LedgerPath: *ledgerPath,
		LeaseTTL:   *leaseTTL,
		Logger:     logger,
		Spans:      spans,
	})
	if err != nil {
		fatal(err)
	}
	defer m.Close()

	srv := sweepsvc.NewServer(m)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go srv.ExpireLoop(ctx)
	go func() {
		<-ctx.Done()
		logger.Info("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
	}()

	logger.Info("serving", "addr", ln.Addr().String(), "ledger", *ledgerPath, "lease_ttl", leaseTTL.String())
	err = hs.Serve(ln)
	if err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	// Interrupted rather than crashed: the ledger makes this resumable, so
	// it is the partial-progress exit (3), with a final summary naming what
	// a restart on the same ledger will pick up.
	mt := m.MetricsSnapshot()
	logger.Warn("interrupted; ledger is resumable",
		"ledger", *ledgerPath, "jobs", mt.Jobs,
		"points_registered", mt.PointsRegistered,
		"reports_accepted", mt.ReportsAccepted,
		obs.KeyExitCode, 3)
	os.Exit(3)
}
