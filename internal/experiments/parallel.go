package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/tracing"
	"repro/internal/workload/oltp"
)

// sim is one simulation of an experiment: a labelled machine
// configuration running the OLTP or DSS workload.
type sim struct {
	label  string
	cfg    config.Config
	dss    bool           // the DSS workload (default OLTP)
	hints  oltp.HintLevel // OLTP software hints
	traced bool           // run under the simulation's own event tracer
}

// simOf is a simulation of the default machine with mod applied (nil =
// none); the workload is OLTP unless dss is set.
func simOf(label string, dss bool, mod func(*config.Config)) sim {
	cfg := config.Default()
	if mod != nil {
		mod(&cfg)
	}
	return sim{label: label, cfg: cfg, dss: dss}
}

// withHints is s with OLTP software hints h.
func (s sim) withHints(h oltp.HintLevel) sim {
	s.hints = h
	return s
}

// run simulates s under sc.
func (s sim) run(sc Scale) (*stats.Report, error) {
	if s.dss {
		return RunDSS(s.cfg, sc, s.label)
	}
	return RunOLTP(s.cfg, sc, s.label, s.hints)
}

// simSpec is the hashed identity of one simulation. The label, the
// experiment and the tracer are left out, so identical simulations in
// different figures share one spec hash.
type simSpec struct {
	Workload string         `json:"workload"`
	Hints    oltp.HintLevel `json:"hints"`
	Config   config.Config  `json:"config"`
	Scale    PointSpec      `json:"scale"`
}

// spec is s's identity under sc.
func (s sim) spec(sc Scale) simSpec {
	ss := simSpec{Workload: "oltp", Hints: s.hints, Config: s.cfg, Scale: sc.Spec("")}
	if s.dss {
		ss.Workload = "dss"
	}
	return ss
}

// runPoints is the one executor of experiment simulations. It runs sims
// through the internal/runner worker pool and returns their reports, and
// the tracers of traced simulations (nil elsewhere), in input order. The
// pool has sc.Parallel workers (0 = GOMAXPROCS; 1 = one simulation at a
// time). A scale with a Tracer attached runs on one worker: the tracer is
// shared mutable state whose event order must stay deterministic. A
// traced simulation gets a tracer of its own, never the caller's. Each
// simulation builds its own core.System, so parallel execution is
// bit-identical to one-at-a-time execution — the orchestration tests
// assert it.
//
// A failing simulation does not stop the others; the first failing one
// in input order is returned, regardless of completion order.
func runPoints(sc Scale, sims []sim) ([]*stats.Report, []*tracing.Tracer, error) {
	workers := sc.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if sc.Tracer != nil {
		workers = 1
	}

	reports := make([]*stats.Report, len(sims))
	tracers := make([]*tracing.Tracer, len(sims))
	errs := make([]error, len(sims))
	rpts := make([]runner.Point, len(sims))
	for i, s := range sims {
		rpts[i] = runner.Point{
			ID:        s.label,
			Spec:      s.spec(sc),
			MaxCycles: sc.MaxCycles,
			Run: func(ctx context.Context, _ runner.Attempt) (any, error) {
				psc := sc
				psc.Context = ctx // pool deadline + sweep cancel (parent is sc.Context)
				if s.traced {
					tracers[i] = tracing.New(tracing.Options{})
					psc.Tracer = tracers[i]
				}
				rep, err := s.run(psc)
				reports[i], errs[i] = rep, err
				return rep, err
			},
		}
	}
	parent := sc.Context
	if parent == nil {
		parent = context.Background()
	}
	// Deterministic simulations gain nothing from retries; a failure is a
	// real result. No journal: the caller owns durability (cmd/sweep
	// journals whole experiments).
	_, poolErr := runner.Run(parent, rpts, runner.Options{
		Workers:     workers,
		MaxAttempts: 1,
		Logger:      sc.Logger,
	})
	for i := range sims {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
	}
	if poolErr != nil {
		return nil, nil, poolErr
	}
	for i := range sims {
		if reports[i] == nil {
			return nil, nil, fmt.Errorf("experiments: point %q did not run", sims[i].label)
		}
	}
	return reports, tracers, nil
}
