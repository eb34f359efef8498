package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Mid-run checkpoint/restore. A checkpoint serializes only the dynamic
// state of the machine (pipelines, caches, directories, locks, clocks,
// statistics, open telemetry/trace state, and the workloads' generation
// cursors); the static structure is rebuilt from the same configuration
// by the caller, which then applies RestoreCheckpoint to a fresh
// System. The simulator is fully deterministic given (config, seed), so
// a restored run retires the same instructions in the same cycles and
// its Report, telemetry series, and trace are byte-identical to an
// uninterrupted run (TestCheckpointByteIdentity).

// DefaultCheckpointInterval is the capture period in simulated cycles
// when CheckpointOptions.Interval is zero.
const DefaultCheckpointInterval = 1_000_000

// WorkloadCheckpointer serializes and rewinds a workload's generation
// state. Implemented by oltp.Workload and dss.Workload: restore rebuilds
// each stream by replaying its draws against logged shared interactions.
type WorkloadCheckpointer interface {
	SnapshotWorkload() ([]byte, error)
	RestoreWorkload([]byte) error
}

// CheckpointOptions arms periodic (and on-cancel) checkpointing for a
// run. The capture cycle boundaries are deterministic — the run loop
// visits every cycle and settles every skip run before a capture — so
// checkpointing does not perturb the simulation.
type CheckpointOptions struct {
	// Path is the checkpoint file; each capture atomically replaces it.
	Path string
	// Interval is the capture period in cycles (0 = DefaultCheckpointInterval).
	Interval uint64
	// Workload serializes the workload's generation state; required.
	Workload WorkloadCheckpointer
	// SpecHash identifies the (config, workload, seed) of the run; it is
	// stored in the file and verified by LoadCheckpoint.
	SpecHash string
	// OnCapture, when non-nil, observes each successful capture.
	OnCapture func(cycle uint64, path string)
}

func (o *CheckpointOptions) interval() uint64 {
	if o == nil {
		return 0
	}
	if o.Interval == 0 {
		return DefaultCheckpointInterval
	}
	return o.Interval
}

// ErrSpecMismatch reports a checkpoint taken under a different spec.
var ErrSpecMismatch = errors.New("core: checkpoint spec hash does not match")

// LockTableState is the dynamic state of the machine-wide lock table.
type LockTableState struct {
	Owner     map[uint64]int
	FreeAt    map[uint64]uint64
	Gen       uint64
	Acquires  uint64
	Contended uint64
	Handoffs  uint64
	Failed    map[uint64]bool
	LastOwner map[uint64]int
}

func (t *LockTable) snapshot() LockTableState {
	s := LockTableState{
		Owner:     make(map[uint64]int, len(t.owner)),
		FreeAt:    make(map[uint64]uint64, len(t.freeAt)),
		Gen:       t.gen,
		Acquires:  t.acquires,
		Contended: t.contended,
		Handoffs:  t.handoffs,
		Failed:    make(map[uint64]bool, len(t.failed)),
		LastOwner: make(map[uint64]int, len(t.lastOwner)),
	}
	for k, v := range t.owner {
		s.Owner[k] = v
	}
	for k, v := range t.freeAt {
		s.FreeAt[k] = v
	}
	for k, v := range t.failed {
		s.Failed[k] = v
	}
	for k, v := range t.lastOwner {
		s.LastOwner[k] = v
	}
	return s
}

func (t *LockTable) restore(s LockTableState) {
	t.owner = make(map[uint64]int, len(s.Owner))
	for k, v := range s.Owner {
		t.owner[k] = v
	}
	t.freeAt = make(map[uint64]uint64, len(s.FreeAt))
	for k, v := range s.FreeAt {
		t.freeAt[k] = v
	}
	t.failed = make(map[uint64]bool, len(s.Failed))
	for k, v := range s.Failed {
		t.failed[k] = v
	}
	t.lastOwner = make(map[uint64]int, len(s.LastOwner))
	for k, v := range s.LastOwner {
		t.lastOwner[k] = v
	}
	t.gen = s.Gen
	t.acquires = s.Acquires
	t.contended = s.Contended
	t.handoffs = s.Handoffs
}

// TelemetryRunState carries the sampling collector across a restore:
// cursor state plus every sample published so far, which the resumed
// run re-publishes into its (fresh) sinks so the final series is
// byte-identical to an uninterrupted run's.
type TelemetryRunState struct {
	Seq     int
	NextAt  uint64
	Prev    TelemetrySnapState
	Samples []telemetry.Sample
}

// MachineState is the full dynamic state of a run: the machine, the
// run-loop bookkeeping, the observers, and the workload blob.
type MachineState struct {
	Cycle      uint64
	StatsStart uint64

	Warmed       bool
	LastRetired  uint64
	LastProgress uint64

	Cores    []cpu.CoreState
	Contexts []cpu.ContextState
	Sched    sched.SchedulerState
	Mem      memsys.SystemState
	Locks    LockTableState

	Telemetry *TelemetryRunState
	Tracer    *tracing.TracerState

	Workload []byte
}

// machineState assembles the checkpoint image of the running system.
func (s *System) machineState(warmed bool, lastRetired, lastProgress uint64,
	tel *telemetryState, tracer *tracing.Tracer, wl WorkloadCheckpointer) (*MachineState, error) {
	wb, err := wl.SnapshotWorkload()
	if err != nil {
		return nil, err
	}
	st := &MachineState{
		Cycle:        s.cycle,
		StatsStart:   s.statsStart,
		Warmed:       warmed,
		LastRetired:  lastRetired,
		LastProgress: lastProgress,
		Sched:        s.sch.Snapshot(),
		Mem:          s.mem.Snapshot(),
		Locks:        s.locks.snapshot(),
		Workload:     wb,
	}
	for _, c := range s.cores {
		st.Cores = append(st.Cores, c.Snapshot())
	}
	for _, ctx := range s.procs {
		st.Contexts = append(st.Contexts, ctx.Snapshot())
	}
	if tel != nil {
		st.Telemetry = tel.checkpoint()
	}
	if tracer != nil {
		ts := tracer.Snapshot()
		st.Tracer = &ts
	}
	return st, nil
}

// captureCheckpoint writes the current state to ck.Path atomically.
func (s *System) captureCheckpoint(ck *CheckpointOptions, warmed bool, lastRetired, lastProgress uint64,
	tel *telemetryState, tracer *tracing.Tracer) error {
	if ck.Workload == nil {
		return errors.New("core: CheckpointOptions.Workload is required")
	}
	s.settleAll()
	st, err := s.machineState(warmed, lastRetired, lastProgress, tel, tracer, ck.Workload)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("encoding machine state: %w", err)
	}
	if err := checkpoint.Write(ck.Path, checkpoint.Meta{SpecHash: ck.SpecHash, Cycle: s.cycle}, buf.Bytes()); err != nil {
		return err
	}
	if ck.OnCapture != nil {
		ck.OnCapture(s.cycle, ck.Path)
	}
	return nil
}

// DecodeMachineState decodes a checkpoint payload. Decode failures are
// reported as corruption (checkpoint.IsCorrupt) so callers fall back to
// from-scratch execution.
func DecodeMachineState(payload []byte) (*MachineState, error) {
	st := &MachineState{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("core: decoding machine state: %v: %w", err, checkpoint.ErrCorrupt)
	}
	return st, nil
}

// LoadCheckpoint reads and verifies a checkpoint file. A torn or
// corrupt file fails with checkpoint.ErrCorrupt; a valid file written
// under a different spec fails with ErrSpecMismatch (when specHash is
// non-empty). An absent file returns the fs.ErrNotExist error unwrapped.
func LoadCheckpoint(path, specHash string) (*MachineState, error) {
	meta, payload, err := checkpoint.Read(path)
	if err != nil {
		return nil, err
	}
	if specHash != "" && meta.SpecHash != specHash {
		return nil, fmt.Errorf("%w: checkpoint %s holds spec %q, want %q", ErrSpecMismatch, path, meta.SpecHash, specHash)
	}
	st, err := DecodeMachineState(payload)
	if err != nil {
		return nil, err
	}
	if st.Cycle != meta.Cycle {
		return nil, fmt.Errorf("core: checkpoint %s header cycle %d does not match payload cycle %d: %w",
			path, meta.Cycle, st.Cycle, checkpoint.ErrCorrupt)
	}
	return st, nil
}

// RestoreCheckpoint rewinds a freshly built System (same configuration,
// same processes added in the same order, no cycles run) to a
// checkpoint. wl must be the freshly built workload whose streams are
// attached to the system's contexts.
func (s *System) RestoreCheckpoint(st *MachineState, wl WorkloadCheckpointer) error {
	if wl == nil {
		return errors.New("core: RestoreCheckpoint requires the workload")
	}
	if s.cycle != 0 {
		return fmt.Errorf("core: RestoreCheckpoint on a system already at cycle %d", s.cycle)
	}
	if len(st.Cores) != len(s.cores) {
		return fmt.Errorf("core: checkpoint has %d cores, configured %d", len(st.Cores), len(s.cores))
	}
	if len(st.Contexts) != len(s.procs) {
		return fmt.Errorf("core: checkpoint has %d contexts, machine has %d", len(st.Contexts), len(s.procs))
	}
	if err := wl.RestoreWorkload(st.Workload); err != nil {
		return err
	}
	htmCfg := s.cores[0].HTMCfg()
	byID := make(map[int]*cpu.Context, len(s.procs))
	for i, ctx := range s.procs {
		if st.Contexts[i].ID != ctx.ID {
			return fmt.Errorf("core: checkpoint context %d has id %d, machine has %d", i, st.Contexts[i].ID, ctx.ID)
		}
		ctx.Restore(st.Contexts[i], htmCfg)
		byID[ctx.ID] = ctx
	}
	for i, c := range s.cores {
		if err := c.Restore(st.Cores[i], byID); err != nil {
			return err
		}
	}
	if err := s.sch.Restore(st.Sched, byID); err != nil {
		return err
	}
	if err := s.mem.Restore(st.Mem); err != nil {
		return err
	}
	s.locks.restore(st.Locks)
	s.cycle = st.Cycle
	s.statsStart = st.StatsStart
	return nil
}

// RestoreAndRun applies a loaded checkpoint to this freshly built
// system and resumes the run. opt.Checkpoint must be set (its Workload
// is the restore target and subsequent captures continue onto its
// Path); opt.Telemetry and opt.Tracer, when set, are restored to the
// checkpoint's observer state first, so the finished run's outputs are
// byte-identical to an uninterrupted run's.
func (s *System) RestoreAndRun(opt RunOptions, st *MachineState) (*stats.Report, error) {
	if opt.Checkpoint == nil || opt.Checkpoint.Workload == nil {
		return nil, errors.New("core: RestoreAndRun requires CheckpointOptions with a Workload")
	}
	if err := s.RestoreCheckpoint(st, opt.Checkpoint.Workload); err != nil {
		return nil, err
	}
	return s.run(opt, st)
}
