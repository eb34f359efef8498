// Package repro is a from-scratch reproduction of Ranganathan,
// Gharachorloo, Adve & Barroso, "Performance of Database Workloads on
// Shared-Memory Systems with Out-of-Order Processors" (ASPLOS 1998).
//
// It provides a cycle-level, trace-driven simulator of a CC-NUMA
// shared-memory multiprocessor built from aggressive out-of-order
// processors (internal/cpu, internal/memsys, internal/coherence,
// internal/mesh), a miniature database engine standing in for Oracle
// (internal/db), OLTP (TPC-B style) and DSS (TPC-D Query 6 style) workload
// generators (internal/workload), and a harness that regenerates every
// table and figure of the paper's evaluation (internal/experiments).
//
// This package is the public facade: it re-exports the configuration,
// machine, workload, and experiment types so that applications depend only
// on the module root.
//
// Quick start:
//
//	cfg := repro.DefaultConfig()
//	rep, err := repro.RunOLTP(cfg, repro.QuickScale, "my-run", repro.HintNone)
//	fmt.Printf("IPC %.2f\n", rep.IPC(cfg.Nodes))
//
// Or drive the machine directly with your own instruction streams:
//
//	m, _ := repro.NewMachine(cfg)
//	m.AddProcess(0, myStream) // any repro.Stream implementation
//	rep, _ := m.Run(repro.RunOptions{Label: "custom"})
package repro

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

// Machine configuration (Figure 1 of the paper).
type (
	// Config holds every machine parameter; start from DefaultConfig.
	Config = config.Config
	// ConsistencyModel selects SC, PC, or RC.
	ConsistencyModel = config.ConsistencyModel
	// ConsistencyImpl selects plain, +prefetch, or +speculative-load
	// implementations (Section 3.4).
	ConsistencyImpl = config.ConsistencyImpl
)

// Consistency models and implementation levels.
const (
	RC = config.RC
	PC = config.PC
	SC = config.SC

	ImplPlain       = config.ImplPlain
	ImplPrefetch    = config.ImplPrefetch
	ImplSpeculative = config.ImplSpeculative
)

// DefaultConfig returns the paper's base system (Figure 1): 4 nodes,
// 4-way-issue out-of-order cores with 64-entry windows, 128KB L1s, 8MB L2,
// 8 MSHRs, release consistency.
func DefaultConfig() Config { return config.Default() }

// The simulated machine.
type (
	// Machine is the whole simulated multiprocessor.
	Machine = core.System
	// RunOptions controls a simulation (warm-up, cycle bound).
	RunOptions = core.RunOptions
	// Report is the statistics report of one run.
	Report = stats.Report
	// Breakdown is execution time split into the paper's categories.
	Breakdown = stats.Breakdown
	// Category indexes a Breakdown component.
	Category = stats.Category
)

// Execution-time categories (indexes into Breakdown).
const (
	CatBusy       = stats.Busy
	CatCPUStall   = stats.CPUStall
	CatInstr      = stats.Instr
	CatReadL1     = stats.ReadL1
	CatReadL2     = stats.ReadL2
	CatReadLocal  = stats.ReadLocal
	CatReadRemote = stats.ReadRemote
	CatReadDirty  = stats.ReadDirty
	CatReadDTLB   = stats.ReadDTLB
	CatWrite      = stats.Write
	CatSync       = stats.Sync
)

// NewMachine builds a machine for cfg.
func NewMachine(cfg Config) (*Machine, error) { return core.NewSystem(cfg) }

// Instruction traces.
type (
	// Stream produces dynamic instructions (implemented by the workload
	// generators and by trace-file readers).
	Stream = trace.Stream
	// Instr is one dynamic instruction.
	Instr = trace.Instr
)

// Workloads.
type (
	// OLTPConfig scales the TPC-B style workload.
	OLTPConfig = oltp.Config
	// OLTPWorkload generates OLTP server-process streams.
	OLTPWorkload = oltp.Workload
	// DSSConfig scales the TPC-D Query 6 style workload.
	DSSConfig = dss.Config
	// DSSWorkload generates parallel-query-server streams.
	DSSWorkload = dss.Workload
	// HintLevel selects the Section 4.2 software flush/prefetch hints.
	HintLevel = oltp.HintLevel
)

// Software-hint levels for the OLTP workload (Figure 7b).
const (
	HintNone          = oltp.HintNone
	HintFlush         = oltp.HintFlush
	HintFlushPrefetch = oltp.HintFlushPrefetch
)

// NewOLTP builds the shared OLTP workload (engine + code layout).
func NewOLTP(cfg OLTPConfig) *OLTPWorkload { return oltp.New(cfg) }

// DefaultOLTPConfig returns the paper-matched OLTP scaling for a machine
// with nodes processors (8 server processes per CPU).
func DefaultOLTPConfig(nodes int) OLTPConfig { return oltp.DefaultConfig(nodes) }

// NewDSS builds the shared DSS workload.
func NewDSS(cfg DSSConfig) *DSSWorkload { return dss.New(cfg) }

// DefaultDSSConfig returns the paper-matched DSS scaling (4 query servers
// per CPU).
func DefaultDSSConfig(nodes int) DSSConfig { return dss.DefaultConfig(nodes) }

// Experiments (every table and figure of the paper).
type (
	// Scale controls how much work each experiment simulates.
	Scale = experiments.Scale
	// Result is one experiment's reports and rendered tables.
	Result = experiments.Result
)

// Experiment scales.
var (
	// DefaultScale is the EXPERIMENTS.md scale.
	DefaultScale = experiments.DefaultScale
	// QuickScale keeps runs short (benchmarks, smoke tests).
	QuickScale = experiments.QuickScale
)

// RunOLTP simulates the OLTP workload on a machine configured by cfg.
func RunOLTP(cfg Config, sc Scale, label string, hints HintLevel) (*Report, error) {
	return experiments.RunOLTP(cfg, sc, label, hints)
}

// RunDSS simulates the DSS workload on a machine configured by cfg.
func RunDSS(cfg Config, sc Scale, label string) (*Report, error) {
	return experiments.RunDSS(cfg, sc, label)
}

// Interval telemetry (attach a pipeline via RunOptions.Telemetry; the
// collector is a pure observer — instruction and cycle counts are
// identical with telemetry on or off).
type (
	// TelemetryPipeline is the per-run sampling pipeline (interval, tags,
	// probes, and a router fanning samples out to sinks).
	TelemetryPipeline = telemetry.Pipeline
	// TelemetrySample is one interval's measurements.
	TelemetrySample = telemetry.Sample
	// TelemetrySink consumes samples (JSONL, CSV, Prometheus HTTP, or
	// any custom implementation).
	TelemetrySink = telemetry.Sink
	// TelemetryFilter gates a sink by sample tags.
	TelemetryFilter = telemetry.Filter
	// TelemetryFuncSink adapts a function into a TelemetrySink.
	TelemetryFuncSink = telemetry.FuncSink
)

// NewTelemetry builds a pipeline sampling every interval cycles
// (0 = Config.TelemetryInterval, or 100k if that is also zero).
func NewTelemetry(interval uint64) *TelemetryPipeline { return telemetry.New(interval) }

// OpenJSONLSink appends one JSON object per sample to path.
func OpenJSONLSink(path string) (TelemetrySink, error) { return telemetry.OpenJSONLSink(path) }

// OpenCSVSink writes samples as CSV rows to path.
func OpenCSVSink(path string) (TelemetrySink, error) { return telemetry.OpenCSVSink(path) }

// ListenTelemetry serves the latest sample and accumulated totals in
// Prometheus text format on addr (endpoint /metrics).
func ListenTelemetry(addr string) (*telemetry.PromSink, error) {
	return telemetry.ListenPromSink(addr)
}

// Robustness & diagnostics.
type (
	// FaultConfig configures the deterministic fault injector (timing-only
	// mesh delays, directory NACKs with bounded retry, memory stalls).
	FaultConfig = config.FaultConfig
	// Snapshot is a machine-state dump (pipelines, in-flight misses,
	// directory, locks, mesh) attached to watchdog and crash errors.
	Snapshot = diag.Snapshot
	// ProgressError reports a forward-progress watchdog trip.
	ProgressError = core.ProgressError
	// CycleLimitError reports an exceeded MaxCycles bound; it wraps
	// ErrMaxCycles.
	CycleLimitError = core.CycleLimitError
	// CanceledError reports a run ended by its RunOptions.Context.
	CanceledError = core.CanceledError
	// PanicError is a machine-model panic recovered by Run, carrying the
	// panic value, stack, and a best-effort snapshot.
	PanicError = diag.PanicError
)

// ErrMaxCycles is the sentinel wrapped by CycleLimitError; test with
// errors.Is.
var ErrMaxCycles = core.ErrMaxCycles

// DefaultWatchdogWindow is the default forward-progress window in cycles.
const DefaultWatchdogWindow = core.DefaultWatchdogWindow

// Experiment is one paper table or figure; its Run method regenerates it.
type Experiment = experiments.Experiment

// Experiments returns every reproducible table and figure (the paper's
// evaluation plus the ablations and extensions in DESIGN.md).
func Experiments() []Experiment { return experiments.All }
