// Command simbench is the simulator's benchmark. It runs one workload
// through the simulator's Go API, checks the outputs, and prints every
// metric by name with its unit; the last line of standard output is the
// result as one JSON object.
//
//	bash simbench/run.sh --workload oltp --seed 1 --seconds 25 --trace 0
//
// Workloads: oltp (TPC-B), dss (TPC-D Q6) and grid (the fig6 consistency
// grid). --trace 0 is a timed run reporting the end-to-end metrics;
// --trace 1 is a separate traced run reporting the per-layer metrics and
// writing its spans. See NOTES.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiments"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts a failed operation and says why on standard error.
func (r *result) fail(err error) { r.failN(1, err) }

// failN counts n failed operations.
func (r *result) failN(n int, err error) {
	r.Failed += n
	fmt.Fprintf(os.Stderr, "simbench: check failed: %v\n", err)
}

func main() {
	workload := flag.String("workload", "", "oltp, dss or grid")
	seed := flag.Uint64("seed", 1, "workload seed (oltp and dss; grid runs at the library seed)")
	seconds := flag.Float64("seconds", 25, "measurement time of a timed run")
	traced := flag.Int("trace", 0, "1 for the traced run, 0 for the timed run")
	out := flag.String("out", filepath.Join(".bench_build", "simbench"), "directory for spans and scratch files")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if _, ok := builders[*workload]; !ok && *workload != "grid" {
		fatal(fmt.Errorf("unknown --workload %q (oltp, dss or grid)", *workload))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	res := &result{Metrics: map[string]metric{}}
	if *traced == 1 {
		err = tracedRun(res, *workload, *seed, dir, *out)
	} else {
		err = timedRun(res, *workload, *seed, *seconds, dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
	os.Exit(1)
}

// Minimum repetitions of the measured phase in a timed run; more run
// while the next one still fits in --seconds.
const (
	minSimReps  = 3
	minGridReps = 1
	setupReps   = 200 // set-ups timed per run, for the set-up median
)

// timedRun is the untraced run behind the end-to-end metrics. It repeats
// the measured phase and reports the lower quartile of the repetitions'
// walls. Every repetition simulates exactly the same instructions, so
// their spread is host interference, which only ever adds time. A low
// quantile discards most of it; the lower quartile is steadier from run
// to run than the fastest repetition, an extreme of a few samples (see
// NOTES.md).
func timedRun(res *result, name string, seed uint64, seconds float64, dir string) error {
	var walls, spent, setups []float64 // spent: every attempt's wall, failed ones too
	var instr, cycles uint64
	var paperErr float64
	start := time.Now()
	more := func(min int) bool {
		return len(spent) < min || time.Since(start).Seconds()+median(spent) <= seconds
	}
	// pass records one repetition's outputs; a mismatch with an earlier
	// repetition means the simulation is not deterministic.
	pass := func(wall float64, in, cyc uint64, perr float64) error {
		if len(walls) > 0 && (in != instr || cyc != cycles) {
			return fmt.Errorf("repetition simulated %d instructions in %d cycles, an earlier one %d in %d", in, cyc, instr, cycles)
		}
		walls = append(walls, wall)
		instr, cycles, paperErr = in, cyc, perr
		return nil
	}
	// setUp builds one simulation of the workload for the set-up median;
	// grid alternates the QuickScale OLTP and DSS simulations it is made of.
	var setUp func(i int) (*sim, error)
	if name == "grid" {
		for more(minGridReps) {
			runtime.GC()
			g, err := runGrid(dir, nil, 0)
			if err != nil {
				return err
			}
			res.Attempted += gridReports
			spent = append(spent, g.wall)
			if n, err := g.verify(); err != nil {
				res.failN(n, err)
				continue
			}
			in, cyc := g.totals()
			if err := pass(g.wall, in, cyc, g.paperErr()); err != nil {
				res.fail(err)
			}
		}
		setUp = func(i int) (*sim, error) {
			return builders[[]string{"oltp", "dss"}[i%2]](experiments.QuickScale, 1, buildOptions{})
		}
	} else {
		build := builders[name]
		for more(minSimReps) {
			runtime.GC()
			s, err := build(benchScale, seed, buildOptions{})
			if err != nil {
				return err
			}
			t := time.Now()
			rep, err := s.sys.Run(s.opt)
			wall := time.Since(t).Seconds()
			res.Attempted++
			spent = append(spent, wall)
			if err == nil {
				err = s.verify(rep)
			}
			if err == nil {
				err = pass(wall, s.delivered(), rep.Cycles, missRateErr(name, rep))
			}
			if err != nil {
				res.fail(err)
			}
		}
		setUp = func(int) (*sim, error) { return build(benchScale, seed, buildOptions{}) }
	}
	// Peak RSS is the simulations' alone: the set-ups below leave garbage
	// whose peak depends on when the collector runs.
	rss := peakRSSMB()
	// Set-up allocates ~13 MB. Timed back to back from an empty heap, as
	// in a fresh process, nearly every set-up reuses memory the one before
	// freed, so the median measures the CPU work rather than the host's
	// page-fault latency.
	runtime.GC()
	debug.FreeOSMemory()
	for i := 0; i < setupReps; i++ {
		s, err := setUp(i)
		if err != nil {
			return err
		}
		setups = append(setups, s.setupS())
	}
	fmt.Fprintf(os.Stderr, "simbench: %s: %d repetitions, walls %v\n", name, len(spent), spent)
	if len(walls) == 0 {
		return nil // every repetition failed: the result says so, with no metrics
	}
	wall := quantile(walls, 0.25)
	res.set("wall_s", wall, "s")
	res.set("sim_minstr_per_s", float64(instr)/1e6/wall, "Minstr/s")
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", rss, "MB")
	res.set("sim_cycles", float64(cycles), "cycles")
	res.set("paper_err", paperErr, "pp")
	return nil
}

// peakRSSMB is the process's peak resident set from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
