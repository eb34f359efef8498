// Command dbsim runs one simulation of a database workload on the modelled
// CC-NUMA multiprocessor and prints the execution-time breakdown and
// memory-system characterization.
//
// Examples:
//
//	dbsim -workload oltp
//	dbsim -workload dss -nodes 1 -issue 8
//	dbsim -workload oltp -consistency SC -impl spec
//	dbsim -workload oltp -streambuf 4 -hints flush+prefetch
//	dbsim -workload oltp -telemetry-jsonl series.jsonl -telemetry-interval 50000
//	dbsim -workload dss -telemetry-http :9090   # live Prometheus endpoint
//	dbsim -workload oltp -trace-events run.trace.json -trace-profile profile.json
//	dbsim -workload oltp -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Exit status: 0 on success, 1 when the simulation fails (the diagnostic
// machine snapshot, if any, is printed to stderr), 2 on flag/usage errors,
// 3 when the run is interrupted (Ctrl-C or an expired -timeout cancels the
// run cleanly: the machine snapshot at the interrupt is printed to stderr
// instead of the process dying mid-cycle, and the final structured log
// record carries exit_code).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/workload/oltp"
)

// logger is the process-wide structured logger (stderr JSON; stdout stays
// reserved for the rendered report).
var logger *slog.Logger

func warnf(format string, args ...any) {
	logger.Warn(fmt.Sprintf(format, args...))
}

func main() {
	logger = obs.Init("dbsim")

	var (
		workload    = flag.String("workload", "oltp", "workload: oltp or dss")
		nodes       = flag.Int("nodes", 4, "number of processors/nodes")
		issue       = flag.Int("issue", 4, "issue width")
		window      = flag.Int("window", 64, "instruction window size")
		inorder     = flag.Bool("inorder", false, "in-order issue")
		mshrs       = flag.Int("mshrs", 8, "outstanding misses (L1D and L2 MSHRs)")
		consistency = flag.String("consistency", "RC", "memory model: SC, PC or RC")
		impl        = flag.String("impl", "plain", "consistency implementation: plain, prefetch or spec")
		streambuf   = flag.Int("streambuf", 0, "instruction stream buffer entries (0 = none)")
		hints       = flag.String("hints", "none", "software hints: none, flush or flush+prefetch")
		latchPol    = flag.String("latch-policy", "plain", "lock-path strategy: plain, hints (latch prefetch+flush) or htm (latch elision)")
		htmReadSet  = flag.Int("htm-read-set", 0, "HTM transactional read-set bound in lines (0 = derive from L1D geometry)")
		htmWriteSet = flag.Int("htm-write-set", 0, "HTM transactional write-set bound in lines (0 = derive from L1D geometry)")
		htmRetries  = flag.Int("htm-retries", config.Default().HTM.MaxRetries, "HTM speculative retries before latch fallback")
		htmBackoff  = flag.Int("htm-backoff", config.Default().HTM.BackoffCycles, "HTM linear backoff unit between retries, in cycles")
		tx          = flag.Int("tx", 3, "OLTP transactions per process")
		rows        = flag.Int("rows", 24000, "DSS rows per process")
		warmupTx    = flag.Int("warmup", 1, "OLTP warm-up transactions per process")
		perfectI    = flag.Bool("perfect-icache", false, "perfect instruction cache")
		perfectB    = flag.Bool("perfect-bpred", false, "perfect branch prediction")
		maxCycles   = flag.Uint64("max-cycles", 2_000_000_000, "simulation cycle bound")
		tracePrefix = flag.String("trace", "", "replay trace files <prefix>.pN.trace instead of generating a workload")
		traceProcs  = flag.Int("trace-procs", 1, "number of trace files to replay")

		timeout     = flag.Duration("timeout", 0, "wall-clock bound on the run (0 = none)")
		watchdog    = flag.Uint64("watchdog", 0, fmt.Sprintf("forward-progress watchdog window in cycles (0 = the default, %d)", uint64(core.DefaultWatchdogWindow)))
		noWatchdog  = flag.Bool("no-watchdog", false, "disable the forward-progress watchdog")
		debugChecks = flag.Bool("debug-checks", false, "enable coherence invariant and consistency order checking (slow)")
		faultSeed   = flag.Uint64("fault-seed", 1, "fault injector seed")
		faultMesh   = flag.Float64("fault-mesh", 0, "per-message mesh delay probability (0 disables)")
		faultNACK   = flag.Float64("fault-nack", 0, "per-request directory NACK probability (0 disables)")
		faultStall  = flag.Float64("fault-stall", 0, "per-access transient memory stall probability (0 disables)")

		ckFile     = flag.String("checkpoint", "", "write periodic mid-run checkpoints to this file (atomically replaced each capture)")
		ckInterval = flag.Uint64("checkpoint-interval", 0, "checkpoint capture period in simulated cycles (0 = default, 1M)")
		ckRestore  = flag.String("restore", "", "resume from this checkpoint file; an invalid or mismatched file falls back to a fresh run")

		telJSONL    = flag.String("telemetry-jsonl", "", "write interval telemetry samples to this JSONL file")
		telCSV      = flag.String("telemetry-csv", "", "write interval telemetry samples to this CSV file")
		telHTTP     = flag.String("telemetry-http", "", "serve live Prometheus metrics on this address (e.g. :9090)")
		telInterval = flag.Uint64("telemetry-interval", 0, "telemetry sampling interval in cycles (0 = config default, 100k)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")

		reportJSON = flag.String("report-json", "", "write the machine-readable report (with run provenance) to this JSON file (\"-\" = stdout)")

		traceEvents  = flag.String("trace-events", "", "write the cycle-resolved event trace to this Chrome trace-event JSON file (Perfetto-loadable)")
		traceProfile = flag.String("trace-profile", "", "write the stall/migratory/latency aggregate tables to this file (.csv, else JSON)")
		traceBuf     = flag.Int("trace-buf", tracing.DefaultBufferCap, "event ring capacity; oldest raw events are overwritten beyond it")
		traceSample  = flag.Uint64("trace-sample", 1, "keep every Nth raw event of each kind (aggregates stay exact)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalUsage("unexpected arguments: %v", flag.Args())
	}

	cfg := config.Default()
	cfg.Nodes = *nodes
	cfg.IssueWidth = *issue
	cfg.WindowSize = *window
	cfg.InOrder = *inorder
	cfg.L1D.MSHRs = *mshrs
	cfg.L2.MSHRs = *mshrs
	cfg.StreamBufEntries = *streambuf
	cfg.PerfectICache = *perfectI
	cfg.PerfectBPred = *perfectB
	switch *consistency {
	case "SC":
		cfg.Consistency = config.SC
	case "PC":
		cfg.Consistency = config.PC
	case "RC":
		cfg.Consistency = config.RC
	default:
		fatalUsage("unknown consistency model %q", *consistency)
	}
	switch *impl {
	case "plain":
		cfg.ConsistencyOpts = config.ImplPlain
	case "prefetch":
		cfg.ConsistencyOpts = config.ImplPrefetch
	case "spec":
		cfg.ConsistencyOpts = config.ImplSpeculative
	default:
		fatalUsage("unknown consistency implementation %q", *impl)
	}
	lp, ok := config.ParseLatchPolicy(*latchPol)
	if !ok {
		fatalUsage("unknown latch policy %q (plain, hints or htm)", *latchPol)
	}
	cfg.LatchPolicy = lp
	cfg.HTM.ReadSetLines = *htmReadSet
	cfg.HTM.WriteSetLines = *htmWriteSet
	cfg.HTM.MaxRetries = *htmRetries
	cfg.HTM.BackoffCycles = *htmBackoff
	cfg.DebugChecks = *debugChecks
	if *faultMesh > 0 || *faultNACK > 0 || *faultStall > 0 {
		cfg.Faults = config.FaultProfile(*faultSeed, *faultMesh, *faultNACK, *faultStall)
	}
	if err := cfg.Validate(); err != nil {
		fatalUsage("%v", err)
	}

	var hl oltp.HintLevel
	switch *hints {
	case "none":
		hl = oltp.HintNone
	case "flush":
		hl = oltp.HintFlush
	case "flush+prefetch":
		hl = oltp.HintFlushPrefetch
	default:
		fatalUsage("unknown hint level %q", *hints)
	}

	pipe, err := buildPipeline(*telJSONL, *telCSV, *telHTTP, *telInterval)
	if err != nil {
		fatalUsage("%v", err)
	}

	// Ctrl-C cancels the run through the context instead of killing the
	// process: core.Run notices within a few thousand simulated cycles and
	// returns a *core.CanceledError carrying a machine snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sc := experiments.Scale{
		OLTPTransactions: *tx,
		OLTPWarmupTx:     *warmupTx,
		DSSRows:          *rows,
		MaxCycles:        *maxCycles,
		Context:          ctx,
		WatchdogWindow:   *watchdog,
		DisableWatchdog:  *noWatchdog,
	}
	if pipe != nil {
		sc.Telemetry = func(string) *telemetry.Pipeline { return pipe }
	}
	var trc *tracing.Tracer
	if *traceEvents != "" || *traceProfile != "" {
		trc = tracing.New(tracing.Options{BufferCap: *traceBuf, SampleEvery: *traceSample})
		sc.Tracer = trc
	} else if *traceBuf != tracing.DefaultBufferCap || *traceSample != 1 {
		fatalUsage("-trace-buf/-trace-sample need -trace-events or -trace-profile")
	}

	// -restore without -checkpoint keeps checkpointing onto the restored
	// file, so a run can be preempted and resumed any number of times.
	if *ckRestore != "" && *ckFile == "" {
		*ckFile = *ckRestore
	}
	if *ckInterval != 0 && *ckFile == "" {
		fatalUsage("-checkpoint-interval needs -checkpoint or -restore")
	}
	// The spec hash binds a checkpoint to the exact machine and workload it
	// was taken from (restoring under any other flag set is rejected and
	// falls back to a fresh run) and content-addresses this run in the
	// provenance record written by -report-json.
	spec := runner.SpecHash(struct {
		Config   config.Config `json:"config"`
		Workload string        `json:"workload"`
		Tx       int           `json:"tx"`
		WarmupTx int           `json:"warmup_tx"`
		Rows     int           `json:"rows"`
		Hints    string        `json:"hints"`
		Max      uint64        `json:"max_cycles"`
	}{cfg, *workload, *tx, *warmupTx, *rows, *hints, *maxCycles})
	prov := obs.Collect("dbsim", os.Args[1:])
	prov.Seed = *faultSeed
	prov.SpecHash = spec

	var lastCheckpoint uint64
	if *ckFile != "" {
		if *tracePrefix != "" {
			fatalUsage("-checkpoint is not supported with trace replay")
		}
		sc.Checkpoint = func(string) *core.CheckpointOptions {
			return &core.CheckpointOptions{
				Path:      *ckFile,
				Interval:  *ckInterval,
				SpecHash:  spec,
				OnCapture: func(cycle uint64, _ string) { lastCheckpoint = cycle },
			}
		}
		sc.Restore = *ckRestore
		sc.RestoreFallback = func(label string, err error) {
			warnf("checkpoint %s unusable, starting from scratch: %v", *ckRestore, err)
		}
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}

	var rep *stats.Report
	switch {
	case *tracePrefix != "":
		rep, err = replayTraces(cfg, *tracePrefix, *traceProcs, sc, pipe)
	case *workload == "oltp":
		rep, err = experiments.RunOLTP(cfg, sc, "oltp", hl)
	case *workload == "dss":
		rep, err = experiments.RunDSS(cfg, sc, "dss")
	default:
		fatalUsage("unknown workload %q", *workload)
	}
	if err != nil {
		if snap := runner.SnapshotOf(err); snap != nil {
			fmt.Fprint(os.Stderr, snap.String())
		}
		// A failed run's partial trace is often the most useful diagnostic;
		// export whatever was recorded before exiting.
		writeTraceOutputs(trc, *traceEvents, *traceProfile, rep)
		stopProfiles()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if lastCheckpoint > 0 {
				logger.Info("checkpoint saved; resumable",
					obs.KeyCycle, lastCheckpoint, "restore", *ckFile)
			}
			// Interrupted, not failed: the run was draining fine.
			logger.Warn("run interrupted", "workload", *workload,
				obs.KeySpecHash, spec, "error", err.Error(), obs.KeyExitCode, 3)
			os.Exit(3)
		}
		logger.Error("run failed", "workload", *workload,
			obs.KeySpecHash, spec, "error", err.Error(), obs.KeyExitCode, 1)
		os.Exit(1)
	}
	if pipe != nil {
		if terr := pipe.Err(); terr != nil {
			warnf("%v", terr)
		}
	}
	writeTraceOutputs(trc, *traceEvents, *traceProfile, rep)
	stopProfiles()
	printReport(os.Stdout, cfg, rep)
	if trc != nil && rep.HTMBegins > 0 {
		a := trc.Analysis()
		fmt.Println()
		fmt.Print(tracing.FormatHTM(a.HTM, a.Totals()))
	}
	if *reportJSON != "" {
		if werr := writeReportJSON(*reportJSON, prov, rep); werr != nil {
			logger.Error("writing -report-json failed", "error", werr.Error(), obs.KeyExitCode, 1)
			os.Exit(1)
		}
	}
	logger.Info("run complete", "workload", *workload, obs.KeySpecHash, spec,
		"instructions", rep.Instructions, "cycles", rep.Cycles, obs.KeyExitCode, 0)
}

// writeReportJSON writes the machine-readable run outcome: the provenance
// record (who/what/where produced it) alongside the full report.
func writeReportJSON(path string, prov *obs.Provenance, rep *stats.Report) error {
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
	return enc.Encode(struct {
		Provenance *obs.Provenance `json:"provenance"`
		Report     *stats.Report   `json:"report"`
	}{prov, rep})
}

// startProfiles starts the pprof CPU profile and arranges the heap profile,
// returning a stop function that finishes both. The stop function is called
// on every exit path (including failed runs, whose profiles are usually the
// interesting ones) rather than deferred, because the error paths leave via
// os.Exit.
func startProfiles(cpuPath, memPath string) (func(), error) {
	stop := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				warnf("%v", err)
			}
		}
	}
	if memPath == "" {
		return stop, nil
	}
	cpuStop := stop
	return func() {
		cpuStop()
		f, err := os.Create(memPath)
		if err != nil {
			warnf("%v", err)
			return
		}
		runtime.GC() // materialize the live set before the snapshot
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			warnf("writing %s: %v", memPath, werr)
		}
	}, nil
}

// writeTraceOutputs exports the recorded event trace and aggregate
// profile, embedding the simulator's own breakdown for reconciliation.
func writeTraceOutputs(trc *tracing.Tracer, eventsPath, profilePath string, rep *stats.Report) {
	if trc == nil {
		return
	}
	if rep != nil {
		trc.SetMeta(tracing.BreakdownMetaKey, tracing.BreakdownToMeta(rep.Breakdown))
		trc.SetMeta("label", rep.Label)
	}
	if eventsPath != "" {
		if f, err := telemetry.CreateFile(eventsPath); err != nil {
			warnf("%v", err)
		} else {
			werr := trc.WriteChrome(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				warnf("writing %s: %v", eventsPath, werr)
			} else {
				kept, sampled, overwritten := trc.Stats()
				logger.Info("trace events written", "path", eventsPath,
					"events", kept, "sampled_out", sampled, "overwritten", overwritten)
			}
		}
	}
	if profilePath != "" {
		tables := trc.Analysis().Tables(trc.Resolve, 50)
		var err error
		if strings.HasSuffix(profilePath, ".csv") {
			err = telemetry.WriteTablesCSV(profilePath, tables)
		} else {
			err = telemetry.WriteTablesJSON(profilePath, tables)
		}
		if err != nil {
			warnf("%v", err)
		} else {
			logger.Info("trace aggregate profile written", "path", profilePath)
		}
	}
}

// fatalUsage reports a flag/usage error: message, usage text, exit 2.
func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dbsim: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// buildPipeline assembles the telemetry pipeline from the CLI flags,
// returning nil when no sink was requested.
func buildPipeline(jsonlPath, csvPath, httpAddr string, interval uint64) (*telemetry.Pipeline, error) {
	if jsonlPath == "" && csvPath == "" && httpAddr == "" {
		if interval != 0 {
			return nil, errors.New("-telemetry-interval needs at least one telemetry sink flag")
		}
		return nil, nil
	}
	pipe := telemetry.New(interval)
	if jsonlPath != "" {
		sink, err := telemetry.OpenJSONLSink(jsonlPath)
		if err != nil {
			return nil, err
		}
		pipe.Attach(sink, nil)
	}
	if csvPath != "" {
		sink, err := telemetry.OpenCSVSink(csvPath)
		if err != nil {
			return nil, err
		}
		pipe.Attach(sink, nil)
	}
	if httpAddr != "" {
		sink, err := telemetry.ListenPromSink(httpAddr)
		if err != nil {
			return nil, err
		}
		logger.Info("serving telemetry", "url", "http://"+sink.Addr()+"/metrics")
		pipe.Attach(sink, nil)
	}
	return pipe, nil
}

// replayTraces drives the machine from trace files written by cmd/tracegen
// (one per server process, round-robin across the nodes).
func replayTraces(cfg config.Config, prefix string, procs int, sc experiments.Scale, pipe *telemetry.Pipeline) (*stats.Report, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for p := 0; p < procs; p++ {
		path := fmt.Sprintf("%s.p%d.trace", prefix, p)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		r, err := trace.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sys.AddProcess(p%cfg.Nodes, r)
	}
	if pipe != nil {
		pipe.SetTag("workload", "trace-replay")
		defer func() { _ = pipe.Close() }()
	}
	return sys.Run(core.RunOptions{
		Label:           "trace-replay",
		MaxCycles:       sc.MaxCycles,
		Context:         sc.Context,
		WatchdogWindow:  sc.WatchdogWindow,
		DisableWatchdog: sc.DisableWatchdog,
		Telemetry:       pipe,
		Tracer:          sc.Tracer,
	})
}

func printReport(w *os.File, cfg config.Config, r *stats.Report) {
	fmt.Fprintf(w, "workload            %s on %d nodes (%s %d-way, window %d, %v/%v)\n",
		r.Label, cfg.Nodes, kind(cfg.InOrder), cfg.IssueWidth, cfg.WindowSize,
		cfg.Consistency, cfg.ConsistencyOpts)
	fmt.Fprintf(w, "instructions        %d\n", r.Instructions)
	fmt.Fprintf(w, "cycles              %d\n", r.Cycles)
	fmt.Fprintf(w, "IPC                 %.3f\n", r.IPC(cfg.Nodes))
	fmt.Fprintf(w, "idle cycles         %.0f (factored out of breakdown)\n\n", r.IdleCycles)

	n := r.Normalized(r)
	fmt.Fprintf(w, "execution time breakdown (fraction of non-idle time):\n")
	fmt.Fprintf(w, "  CPU (busy+FU)     %.3f\n", n.CPU())
	fmt.Fprintf(w, "  instruction       %.3f\n", n[stats.Instr])
	fmt.Fprintf(w, "  read              %.3f  (L1 %.3f, L2 %.3f, local %.3f, remote %.3f, dirty %.3f, dTLB %.3f)\n",
		n.Read(), n[stats.ReadL1], n[stats.ReadL2], n[stats.ReadLocal],
		n[stats.ReadRemote], n[stats.ReadDirty], n[stats.ReadDTLB])
	fmt.Fprintf(w, "  write             %.3f\n", n[stats.Write])
	fmt.Fprintf(w, "  synchronization   %.3f\n", n[stats.Sync])
	if h := n.HTM(); h > 0 {
		fmt.Fprintf(w, "  htm resolution    %.3f  (conflict %.3f, capacity %.3f, explicit %.3f)\n",
			h, n[stats.HTMConflict], n[stats.HTMCapacity], n[stats.HTMExplicit])
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "miss rates          L1I %.2f%%  L1D %.2f%%  L2 %.2f%%\n",
		r.L1IMissRate*100, r.L1DMissRate*100, r.L2MissRate*100)
	fmt.Fprintf(w, "branch mispredict   %.2f%%\n", r.BranchMispred*100)
	fmt.Fprintf(w, "TLB miss rates      iTLB %.3f%%  dTLB %.3f%%\n", r.ITLBMissRate*100, r.DTLBMissRate*100)
	fmt.Fprintf(w, "dirty fraction      %.1f%% of coherence reads serviced cache-to-cache\n", r.DirtyFraction*100)
	if r.StreamBufHitRate > 0 {
		fmt.Fprintf(w, "stream buffer       %.1f%% of L1I misses satisfied\n", r.StreamBufHitRate*100)
	}
	if r.MigratoryLines > 0 {
		fmt.Fprintf(w, "migratory           %.0f%% shared writes, %.0f%% dirty reads; %d lines, %d PCs\n",
			r.SharedWriteMigratory*100, r.ReadDirtyMigratory*100, r.MigratoryLines, r.MigratoryPCs)
	}
	if r.LatchAcquires > 0 {
		fmt.Fprintf(w, "lock table          %d acquires (%d contended, %d handoffs)\n",
			r.LatchAcquires, r.LatchContended, r.LatchHandoffs)
	}
	if r.HTMBegins > 0 {
		fmt.Fprintf(w, "htm elision         %d begins, %d commits, %d aborts (conflict %d, capacity %d, explicit %d), %d fallbacks\n",
			r.HTMBegins, r.HTMCommits, r.HTMAborts(),
			r.HTMConflictAborts, r.HTMCapacityAborts, r.HTMExplicitAborts, r.HTMFallbacks)
	}
	fmt.Fprintf(w, "network             %.0f cycles average message latency\n", r.AvgNetLatency)
}

func kind(inorder bool) string {
	if inorder {
		return "in-order"
	}
	return "out-of-order"
}
