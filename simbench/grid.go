package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// gridReports is the size of the fig6 grid: {SC,PC,RC} x {plain, +prefetch,
// +speculative} x {OLTP, DSS}.
const gridReports = 18

// Paper reductions of SC+prefetch+speculative-load over plain SC.
const paperOLTPReduction, paperDSSReduction = 26.0, 37.0

// gridRun is one pass of the fig6 grid through experiments.Points and
// runner.Run, observed from outside: the runner's per-point log lines
// give each simulation's duration, and in traced runs the Scale.Telemetry
// factory call marks the moment a simulation's machine is built.
type gridRun struct {
	mu   sync.Mutex
	simS []float64 // runner-reported seconds per simulation

	// Traced runs only: spans per simulation and the telemetry totals.
	spans    *spanLog
	parent   int
	meshMsgs uint64
	cycles   uint64 // machine cycles at each simulation's final sample

	wall    float64
	summary *runner.Summary
	result  *experiments.Result
}

func findExperiment(id string) (experiments.Experiment, error) {
	for _, e := range experiments.All {
		if e.ID == id {
			return e, nil
		}
	}
	return experiments.Experiment{}, fmt.Errorf("no experiment %q", id)
}

// gridWorkers is the fig6 pool size: both simulations of a pair run at
// once on a 2-CPU host, never more workers than CPUs.
func gridWorkers() int { return min(2, runtime.NumCPU()) }

// runGrid runs fig6 at QuickScale the way `sweep -fig fig6` does, with a
// journal in dir.
func runGrid(dir string, spans *spanLog, parent int) (*gridRun, error) {
	g := &gridRun{spans: spans, parent: parent}
	fig6, err := findExperiment("fig6")
	if err != nil {
		return nil, err
	}
	sc := experiments.QuickScale
	sc.Parallel = gridWorkers()
	sc.Logger = slog.New(&gridLog{g})
	if spans != nil {
		sc.Telemetry = g.telemetry
	}
	jpath := filepath.Join(dir, "grid-journal.jsonl")
	j, err := runner.OpenJournal(jpath)
	if err != nil {
		return nil, err
	}
	defer os.Remove(jpath)
	pts := experiments.Points([]experiments.Experiment{fig6}, sc, nil)
	t0 := time.Now()
	sum, err := runner.Run(context.Background(), pts, runner.Options{
		Workers:     1,
		MaxAttempts: 1,
		Journal:     j,
		OnEvent: func(ev runner.Event) {
			if ev.Kind == runner.EventDone {
				g.result, _ = ev.Result.(*experiments.Result)
			}
		},
	})
	g.wall = time.Since(t0).Seconds()
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	g.summary = sum
	return g, nil
}

// telemetry is the traced run's Scale.Telemetry factory. RunOLTP/RunDSS
// call it once the simulation's workload and machine are built, just
// before the run.
func (g *gridRun) telemetry(label string) *telemetry.Pipeline {
	id := g.spans.open("grid.sim."+label, g.parent, time.Now())
	p := telemetry.New(1 << 62) // one final sample per simulation
	p.Attach(&gridSink{g: g, span: id}, nil)
	return p
}

// gridSink ends a simulation's span when its pipeline closes and keeps
// the counters the fig6 reports do not carry.
type gridSink struct {
	g    *gridRun
	span int
	last uint64
}

func (s *gridSink) Write(smp *telemetry.Sample) error {
	s.g.mu.Lock()
	s.g.meshMsgs += smp.Mesh.Messages
	s.g.mu.Unlock()
	s.last = smp.Cycle
	return nil
}

func (s *gridSink) Close() error {
	s.g.mu.Lock()
	s.g.cycles += s.last
	s.g.mu.Unlock()
	s.g.spans.close(s.span, time.Now())
	return nil
}

// gridLog receives the runner's structured per-point lines.
type gridLog struct{ g *gridRun }

func (h *gridLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *gridLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *gridLog) WithGroup(string) slog.Handler            { return h }

func (h *gridLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "point done" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "seconds" && a.Value.Kind() == slog.KindFloat64 {
			h.g.mu.Lock()
			h.g.simS = append(h.g.simS, a.Value.Float64())
			h.g.mu.Unlock()
		}
		return true
	})
	return nil
}

// verify checks the grid's outputs. On failure it returns the number of
// the 18 simulations without a good report, at least one.
func (g *gridRun) verify() (failed int, err error) {
	if g.summary == nil || !g.summary.Complete() {
		err = errors.New("fig6 point did not complete")
	}
	if g.result == nil {
		return gridReports, errors.Join(err, errors.New("fig6 produced no result"))
	}
	n := 0
	for _, r := range g.result.Reports {
		if r != nil && r.Instructions > 0 && r.Cycles > 0 {
			n++
		}
	}
	if n != gridReports || len(g.result.Reports) != gridReports {
		err = errors.Join(err, fmt.Errorf("fig6 gave %d good reports of %d, want %d", n, len(g.result.Reports), gridReports))
	}
	if err != nil {
		return max(gridReports-n, 1), err
	}
	return 0, nil
}

// totals sums instructions and post-warm-up cycles over the grid.
func (g *gridRun) totals() (instr, cycles uint64) {
	for _, r := range g.result.Reports {
		instr += r.Instructions
		cycles += r.Cycles
	}
	return instr, cycles
}

// paperErr is the mean absolute error, in percentage points, of the OLTP
// and DSS "SC+prefetch+speculative vs plain SC" reductions against the
// paper's 26% and 37%. Reports are ordered [OLTP x9, DSS x9], each group
// {plain, prefetch, speculative} x {SC, PC, RC}.
func (g *gridRun) paperErr() float64 {
	red := func(plain, spec *stats.Report) float64 {
		return (plain.ExecTime() - spec.ExecTime()) / plain.ExecTime() * 100
	}
	rs := g.result.Reports
	return (abs(red(rs[0], rs[6])-paperOLTPReduction) + abs(red(rs[9], rs[15])-paperDSSReduction)) / 2
}
