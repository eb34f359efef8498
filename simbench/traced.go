package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload/oltp"
)

// setupSamples is how many set-ups the traced run times for the
// setup.* medians.
const setupSamples = 9

// ffRounds is how many untraced passes with fast-forward on, and as many
// with it off, an oltp or dss traced run makes.
const ffRounds = 3

// tracedRun is the separate run behind the per-layer metrics: untraced
// passes for reference, with fast-forward off ones that must match them,
// the same pass traced (spans, CPU profile, sampled Stream.Next timing),
// and the layer replays. Spans are written to out at the end.
func tracedRun(res *result, name string, seed uint64, dir, out string) error {
	sp := newSpanLog()
	root := sp.open("traced."+name, 0, time.Now())
	var err error
	if name == "grid" {
		err = tracedGrid(res, sp, root, dir)
	} else {
		err = tracedSim(res, name, seed, sp, root, dir)
	}
	sp.close(root, time.Now())
	if err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := sp.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simbench: spans written to %s\n", path)
	return nil
}

func tracedSim(res *result, name string, seed uint64, sp *spanLog, root int, dir string) error {
	build := builders[name]
	run := func(s *sim) (*stats.Report, float64) {
		t := time.Now()
		rep, err := s.sys.Run(s.opt)
		wall := time.Since(t).Seconds()
		res.Attempted++
		if err == nil {
			err = s.verify(rep)
		}
		if err != nil {
			res.fail(err)
			return nil, wall
		}
		return rep, wall
	}

	// Untraced passes, alternating fast-forward on and off. The plain
	// cycle loop must give the same report as the fast one, and the ratio
	// of their median walls is what fast-forward saves; one pass each
	// would leave the ratio inside the host's ±15% pass-to-pass noise.
	var baseRep *stats.Report
	var fastWalls, slowWalls []float64
	for i := 0; i < ffRounds; i++ {
		for _, off := range []bool{false, true} {
			runtime.GC()
			s, err := build(benchScale, seed, buildOptions{})
			if err != nil {
				return err
			}
			s.opt.DisableFastForward = off
			span := "core.run.untraced"
			if off {
				span = "core.run.no_fast_forward"
			}
			id := sp.open(span, root, time.Now())
			rep, wall := run(s)
			sp.close(id, time.Now())
			if rep == nil {
				return fmt.Errorf("%s: untraced pass failed", name)
			}
			if baseRep == nil {
				baseRep = rep
			} else if !sameReport(rep, baseRep) {
				res.fail(fmt.Errorf("%s: report with fast-forward=%v differs from the first untraced one", name, !off))
			}
			if off {
				slowWalls = append(slowWalls, wall)
			} else {
				fastWalls = append(fastWalls, wall)
			}
		}
	}
	untraced := median(fastWalls)
	res.set("core.ff_saving", 1-untraced/median(slowWalls), "ratio")

	// Traced pass.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, err := build(benchScale, seed, buildOptions{sampleNext: true, record: recordN})
	if err != nil {
		return err
	}
	sp.add("setup.workload", root, s.t0, s.t1)
	sp.add("setup.machine", root, s.t1, s.t2)
	var prof bytes.Buffer
	if err := startProfile(&prof); err != nil {
		return err
	}
	t0 := time.Now()
	rep, tracedWall := run(s)
	sp.add("core.run", root, t0, time.Now())
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if rep == nil {
		return fmt.Errorf("%s: traced pass failed", name)
	}
	if !sameReport(rep, baseRep) {
		res.fail(fmt.Errorf("%s: traced report differs from the untraced one", name))
	}
	if err := addProfile(res, prof.Bytes()); err != nil {
		return err
	}
	res.set("trace.overhead_s", tracedWall-untraced, "s")
	res.set("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, "MB")

	// Exact counts of the simulated machine.
	sys := s.sys
	res.set("core.cycles_total", float64(sys.Cycle()), "cycles")
	var idle uint64
	for _, n := range sys.Scheduler().IdleCycles {
		idle += n
	}
	res.set("sched.idle_cycles", float64(idle), "cycles")
	res.set("mesh.messages", float64(sys.Mem().Net().Messages), "count")
	addReportCounts(res, []*stats.Report{rep})

	// Workload generation, from the sampled Stream.Next timings.
	var ns int64
	var samples uint64
	for _, st := range s.streams {
		ns += st.sampledNs
		samples += st.samples
	}
	perInstr := float64(ns) / float64(max(samples, 1))
	res.set("workload.ns_per_instr", perInstr, "ns")
	res.set("workload.share", perInstr*float64(s.delivered())/(tracedWall*1e9)*100, "%")
	if err := setupSplit(res, func() (*sim, error) { return build(benchScale, seed, buildOptions{}) }); err != nil {
		return err
	}

	// One simulation in one worker: the runner metrics degenerate.
	res.set("runner.sim_s.max", untraced, "s")
	res.set("runner.sim_s.sum", untraced, "s")
	res.set("runner.busy_frac", 1, "ratio")

	return layerReplays(res, s.streams[0].rec, rep, sp, root, dir,
		func() (*sim, error) { return build(benchScale, seed, buildOptions{checkpoint: true}) })
}

// tracedGrid traces one pass of the fig6 grid. The replays, having no
// stream of the grid's to record, run on the first instructions of an
// OLTP server process at QuickScale.
func tracedGrid(res *result, sp *spanLog, root int, dir string) error {
	runtime.GC()
	base, err := runGrid(dir, nil, 0)
	if err != nil {
		return err
	}
	res.Attempted += gridReports
	if n, err := base.verify(); err != nil {
		res.failN(n, err)
		return fmt.Errorf("grid: untraced pass failed")
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if err := startProfile(&prof); err != nil {
		return err
	}
	runID := sp.open("runner.run", root, time.Now())
	g, err := runGrid(dir, sp, runID)
	sp.close(runID, time.Now())
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	res.Attempted += gridReports
	if n, err := g.verify(); err != nil {
		res.failN(n, err)
		return fmt.Errorf("grid: traced pass failed")
	}
	for i, r := range g.result.Reports {
		if !sameReport(r, base.result.Reports[i]) {
			res.fail(fmt.Errorf("grid: traced report %s differs from the untraced one", r.Label))
		}
	}
	if err := addProfile(res, prof.Bytes()); err != nil {
		return err
	}
	res.set("trace.overhead_s", g.wall-base.wall, "s")
	res.set("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, "MB")
	res.set("core.cycles_total", float64(g.cycles), "cycles")
	res.set("mesh.messages", float64(g.meshMsgs), "count")
	var idle float64
	for _, r := range g.result.Reports {
		idle += r.IdleCycles
	}
	res.set("sched.idle_cycles", idle, "cycles")
	addReportCounts(res, g.result.Reports)

	// Runner: how well the pool kept its workers busy.
	var sum, mx float64
	for _, s := range base.simS {
		sum += s
		mx = max(mx, s)
	}
	res.set("runner.sim_s.max", mx, "s")
	res.set("runner.sim_s.sum", sum, "s")
	res.set("runner.busy_frac", sum/(base.wall*float64(gridWorkers())), "ratio")

	// Workload generation and set-up, on the grid's QuickScale OLTP.
	qs := experiments.QuickScale
	if err := setupSplit(res, func() (*sim, error) { return buildOLTP(qs, 1, buildOptions{}) }); err != nil {
		return err
	}
	s, err := buildOLTP(qs, 1, buildOptions{sampleNext: true})
	if err != nil {
		return err
	}
	instrs := trace.Collect(s.streams[0], recordN)
	res.set("workload.ns_per_instr", float64(s.streams[0].sampledNs)/float64(max(s.streams[0].samples, 1)), "ns")
	// Share of the grid's wall time spent generating instructions.
	instr, _ := g.totals()
	res.set("workload.share", res.Metrics["workload.ns_per_instr"].Value*float64(instr)/(g.wall*1e9)*100, "%")

	// Fast-forward equivalence on the two SC+prefetch+speculative points,
	// which use the store-stall and speculative-rollback paths.
	ffID := sp.open("core.run.no_fast_forward", root, time.Now())
	var fast, slow float64
	for _, i := range []int{6, 15} {
		want := g.result.Reports[i]
		cfg, isOLTP := fig6Config(i)
		for _, ff := range []bool{false, true} {
			sc := experiments.QuickScale
			sc.DisableFastForward = ff
			t := time.Now()
			var r *stats.Report
			if isOLTP {
				r, err = experiments.RunOLTP(cfg, sc, want.Label, oltp.HintNone)
			} else {
				r, err = experiments.RunDSS(cfg, sc, want.Label)
			}
			wall := time.Since(t).Seconds()
			res.Attempted++
			switch {
			case err != nil:
				res.fail(err)
			case !sameReport(r, want):
				res.fail(fmt.Errorf("grid: %s with fast-forward=%v differs from the grid's report", want.Label, !ff))
			}
			if ff {
				slow += wall
			} else {
				fast += wall
			}
		}
	}
	sp.close(ffID, time.Now())
	res.set("core.ff_saving", 1-fast/slow, "ratio")

	return layerReplays(res, instrs, g.result.Reports[0], sp, root, dir,
		func() (*sim, error) { return buildOLTP(qs, 1, buildOptions{checkpoint: true}) })
}

// fig6Config rebuilds the machine configuration of fig6 report i, in
// experiments.Fig6's order.
func fig6Config(i int) (cfg config.Config, isOLTP bool) {
	impls := []config.ConsistencyImpl{config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative}
	models := []config.ConsistencyModel{config.SC, config.PC, config.RC}
	cfg = config.Default()
	cfg.Consistency = models[i%3]
	cfg.ConsistencyOpts = impls[i%9/3]
	return cfg, i < 9
}

// profileHz is the CPU profile's sampling rate: five times pprof's
// default, so a few-second run gives thousands of samples.
const profileHz = 500

// startProfile starts a CPU profile at profileHz. Setting the rate first
// makes pprof's own SetCPUProfileRate(100) a no-op (the runtime prints a
// warning saying so); the shares do not depend on the period.
func startProfile(w *bytes.Buffer) error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(w)
}

// addProfile buckets a CPU profile into the prof.* shares.
func addProfile(res *result, prof []byte) error {
	shares, n, err := profileShares(prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range shares {
		res.set(k, v, "%")
	}
	res.set("prof.samples", float64(n), "count")
	return nil
}

// addReportCounts sets the per-layer counts the reports carry: sums of
// counts and means of rates over the reports.
func addReportCounts(res *result, reps []*stats.Report) {
	var l1i, l1d, l2, acq, cont uint64
	var dirty, dtlb, lat, mis float64
	for _, r := range reps {
		l1i += r.L1IMisses
		l1d += r.L1DMisses
		l2 += r.L2Misses
		acq += r.LatchAcquires
		cont += r.LatchContended
		dirty += r.DirtyFraction
		dtlb += r.DTLBMissRate
		lat += r.AvgNetLatency
		mis += r.BranchMispred
	}
	n := float64(len(reps))
	res.set("cache.l1i_misses", float64(l1i), "count")
	res.set("cache.l1d_misses", float64(l1d), "count")
	res.set("cache.l2_misses", float64(l2), "count")
	res.set("core.latch_acquires", float64(acq), "count")
	res.set("core.latch_contended", float64(cont), "count")
	res.set("coherence.dirty_fraction", dirty/n, "ratio")
	res.set("tlb.dtlb_miss_rate", dtlb/n, "ratio")
	res.set("mesh.avg_latency", lat/n, "cycles")
	res.set("bpred.mispredict_rate", mis/n, "ratio")
}

// setupSplit times set-up in its two halves and reports their medians.
func setupSplit(res *result, build func() (*sim, error)) error {
	var wl, mach []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		s, err := build()
		if err != nil {
			return err
		}
		wl = append(wl, s.t1.Sub(s.t0).Seconds())
		mach = append(mach, s.t2.Sub(s.t1).Seconds())
	}
	res.set("setup.workload_s", median(wl), "s")
	res.set("setup.machine_s", median(mach), "s")
	return nil
}

// layerReplays runs the single-layer replays, the checkpoint capture and
// the journal appends.
func layerReplays(res *result, instrs []trace.Instr, rep *stats.Report, sp *spanLog, root int, dir string, ckBuild func() (*sim, error)) error {
	rs, err := replays(instrs, sp, root)
	if err != nil {
		return err
	}
	for k, v := range rs {
		res.set(k, v, "ns")
	}
	ck, err := ckBuild()
	if err != nil {
		return err
	}
	// A quarter of the measured cycles: well inside every run, warm-up
	// included, and RC's fewer cycles when rep comes from SC.
	cm, err := checkpointReplay(ck, max(rep.Cycles/4, 1), dir, sp, root)
	if err != nil {
		return err
	}
	for k, v := range cm {
		unit := "ms"
		if k == "checkpoint.bytes" {
			unit = "bytes"
		}
		res.set(k, v, unit)
	}
	ms, err := journalReplay(rep, dir, sp, root)
	if err != nil {
		return err
	}
	res.set("runner.journal_append_ms", ms, "ms")
	return nil
}

// sameReport reports whether two reports are byte-identical as JSON.
func sameReport(a, b *stats.Report) bool {
	ja, ea := json.Marshal(a)
	jb, eb := json.Marshal(b)
	return ea == nil && eb == nil && bytes.Equal(ja, jb)
}
