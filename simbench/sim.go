package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

// benchScale sizes the oltp and dss workloads. The builders below set up
// exactly what experiments.RunOLTP/RunDSS set up for a scale, which the
// package test pins byte for byte.
var benchScale = experiments.Scale{
	OLTPTransactions: 1,
	OLTPWarmupTx:     1, // excluded from statistics, so the caches start warm
	DSSRows:          4_000,
	MaxCycles:        600_000_000,
}

// stream is the benchmark's view of the trace.Stream boundary: it counts
// the instructions handed to the simulator and notices the end of the
// trace. System calls are counted apart: the fetch stage consumes them as
// context-switch hints, so they never retire. In a traced run it also times every sampleEvery-th call and
// records the first instructions of the stream for the layer replays.
type stream struct {
	s        trace.Stream
	n        uint64 // instructions delivered
	syscalls uint64
	ended    bool

	sample    bool
	calls     uint64
	samples   uint64
	sampledNs int64

	rec []trace.Instr // filled up to cap(rec)
}

// sampleEvery is the Stream.Next timing stride in traced runs. Timing
// every call added ~25% to a DSS run; one in 64 keeps the cost in the
// noise while still sampling ~100k calls a run.
const sampleEvery = 64

func (c *stream) Next(in *trace.Instr) bool {
	var ok bool
	if c.sample {
		c.calls++
		if c.calls%sampleEvery == 0 {
			t := time.Now()
			ok = c.s.Next(in)
			c.sampledNs += int64(time.Since(t))
			c.samples++
		} else {
			ok = c.s.Next(in)
		}
	} else {
		ok = c.s.Next(in)
	}
	if !ok {
		c.ended = true
		return false
	}
	c.n++
	if in.Op == trace.OpSyscall {
		c.syscalls++
	}
	if len(c.rec) < cap(c.rec) {
		c.rec = append(c.rec, *in)
	}
	return true
}

// sim is one built simulation: the workload, the machine and the run
// options, ready for System.Run.
type sim struct {
	name    string
	sys     *core.System
	opt     core.RunOptions
	streams []*stream
	procs   []*cpu.Context

	// Set-up split: t0 workload build starts, t1 machine build starts,
	// t2 set-up ends.
	t0, t1, t2 time.Time

	// check validates the workload's own outputs after the run.
	check func() error
	// ckpt is the workload's checkpoint hook (armed by armCheckpoint).
	ckpt core.WorkloadCheckpointer
}

// buildOptions controls what a build instruments.
type buildOptions struct {
	sampleNext bool // time a sample of Stream.Next calls
	record     int  // instructions of process 0 to record
	checkpoint bool // arm the workload's record/replay layer
}

// buildOLTP sets up TPC-B on the default 4-node RC machine: 32 server
// processes, one warm-up transaction each, then the measured ones.
func buildOLTP(sc experiments.Scale, seed uint64, bo buildOptions) (*sim, error) {
	cfg := config.Default()
	t0 := time.Now()
	wcfg := oltp.DefaultConfig(cfg.Nodes)
	wcfg.TransactionsPerProcess = sc.OLTPTransactions + sc.OLTPWarmupTx
	wcfg.Seed = seed
	w := oltp.New(wcfg)
	if bo.checkpoint {
		w.EnableCheckpointing()
	}
	streams := wrapStreams(wcfg.Processes, w.Stream, bo)
	s := &sim{name: "oltp", streams: streams, ckpt: w, t0: t0}
	if err := s.buildMachine(cfg, sc.MaxCycles); err != nil {
		return nil, err
	}
	s.opt.WarmupInstructions = uint64(sc.OLTPWarmupTx) * uint64(wcfg.Processes) * w.ApproxInstrPerTx()
	s.check = func() error {
		if err := w.Err(); err != nil {
			return fmt.Errorf("oltp workload failed: %w", err)
		}
		return w.TPCB().CheckConsistency()
	}
	return s, nil
}

// buildDSS sets up the TPC-D Q6 scan: 16 query servers, 30% warm-up.
func buildDSS(sc experiments.Scale, seed uint64, bo buildOptions) (*sim, error) {
	cfg := config.Default()
	t0 := time.Now()
	wcfg := dss.DefaultConfig(cfg.Nodes)
	wcfg.RowsPerProcess = sc.DSSRows
	wcfg.Seed = seed
	w := dss.New(wcfg)
	if bo.checkpoint {
		w.EnableCheckpointing()
	}
	streams := wrapStreams(wcfg.Processes, w.Stream, bo)
	s := &sim{name: "dss", streams: streams, ckpt: w, t0: t0}
	if err := s.buildMachine(cfg, sc.MaxCycles); err != nil {
		return nil, err
	}
	s.opt.WarmupInstructions = uint64(wcfg.Processes) * w.ApproxInstrPerProcess() * 3 / 10
	want := uint64(wcfg.Processes * wcfg.RowsPerProcess)
	s.check = func() error {
		if w.RowsScanned != want {
			return fmt.Errorf("dss scanned %d rows, want %d", w.RowsScanned, want)
		}
		return nil
	}
	return s, nil
}

func wrapStreams(n int, mk func(int) trace.Stream, bo buildOptions) []*stream {
	out := make([]*stream, n)
	for p := range out {
		out[p] = &stream{s: mk(p), sample: bo.sampleNext}
	}
	if bo.record > 0 {
		out[0].rec = make([]trace.Instr, 0, bo.record)
	}
	return out
}

func (s *sim) buildMachine(cfg config.Config, maxCycles uint64) error {
	s.t1 = time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	for p, st := range s.streams {
		s.procs = append(s.procs, sys.AddProcess(p%cfg.Nodes, st))
	}
	s.sys = sys
	s.opt = core.RunOptions{Label: s.name, MaxCycles: maxCycles}
	s.t2 = time.Now()
	return nil
}

func (s *sim) setupS() float64 { return s.t2.Sub(s.t0).Seconds() }

var builders = map[string]func(experiments.Scale, uint64, buildOptions) (*sim, error){
	"oltp": buildOLTP,
	"dss":  buildDSS,
}

// delivered returns the instructions handed out at the Stream boundary
// that retire, i.e. all but the system calls.
func (s *sim) delivered() uint64 {
	var n uint64
	for _, st := range s.streams {
		n += st.n - st.syscalls
	}
	return n
}

// verify checks a finished run: the workload's own outputs, every stream
// drained, and every delivered instruction retired.
func (s *sim) verify(rep *stats.Report) error {
	if rep == nil || rep.Instructions == 0 || rep.Cycles == 0 {
		return errors.New("empty report")
	}
	if err := s.check(); err != nil {
		return err
	}
	var retired uint64
	for p, st := range s.streams {
		if !st.ended {
			return fmt.Errorf("stream %d not drained", p)
		}
		retired += s.procs[p].Retired
	}
	if d := s.delivered(); d != retired {
		return fmt.Errorf("%d instructions delivered but %d retired", d, retired)
	}
	return nil
}

// paperMissRates are the paper's base-system miss rates in percent
// (L1I per instruction, L1D and L2 local), as printed by the tbl-miss
// experiment.
var paperMissRates = map[string][3]float64{
	"oltp": {7.6, 14.1, 7.4},
	"dss":  {0.0, 0.9, 23.1},
}

// missRateErr is the mean absolute error, in percentage points, of a
// run's three miss rates against the paper's.
func missRateErr(name string, r *stats.Report) float64 {
	ref := paperMissRates[name]
	got := [3]float64{r.L1IMissRate * 100, r.L1DMissRate * 100, r.L2MissRate * 100}
	var sum float64
	for i := range got {
		sum += abs(got[i] - ref[i])
	}
	return sum / 3
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
