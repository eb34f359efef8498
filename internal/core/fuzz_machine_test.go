package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// machineConfig decodes one FuzzMachineConfig input into a machine
// configuration with the invariant checkers on.
func machineConfig(nodes, model, impl uint8, inOrder bool, latch, sbuf, mshrs uint8, faults bool, seed uint64) config.Config {
	cfg := config.Default()
	cfg.DebugChecks = true
	cfg.Nodes = 1 + int(nodes%4)
	cfg.Consistency = []config.ConsistencyModel{config.RC, config.PC, config.SC}[model%3]
	cfg.ConsistencyOpts = []config.ConsistencyImpl{config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative}[impl%3]
	cfg.InOrder = inOrder
	cfg.LatchPolicy = []config.LatchPolicy{config.LatchPlain, config.LatchHints, config.LatchHTM}[latch%3]
	cfg.StreamBufEntries = []int{0, 2}[sbuf%2]
	cfg.L1D.MSHRs = 1 + int(mshrs%8)
	cfg.L2.MSHRs = cfg.L1D.MSHRs
	if faults {
		cfg.Faults = config.FaultConfig{
			Enabled:        true,
			Seed:           seed,
			MeshDelayProb:  0.05,
			MeshDelayMax:   30,
			NACKProb:       0.02,
			NACKMaxRetries: 3,
			NACKBackoff:    15,
			MemStallProb:   0.05,
			MemStallCycles: 40,
		}
	}
	return cfg
}

// nopCheckpointer satisfies WorkloadCheckpointer for machines whose
// streams are fixed slices: there is no generation state to save.
type nopCheckpointer struct{}

func (nopCheckpointer) SnapshotWorkload() ([]byte, error) { return nil, nil }
func (nopCheckpointer) RestoreWorkload([]byte) error      { return nil }

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// machineRun is one arm of FuzzMachineConfig: the stressStream machine
// for (cfg, seed), two processes per core, run to completion.
type machineRun struct {
	rep    *stats.Report
	jsonl  []byte
	trace  []byte // Chrome export, when traced
	cycles uint64
	skips  []SkipStats
}

func runStressMachine(t *testing.T, cfg config.Config, seed uint64, iters int, warmup, telInterval, ckInterval uint64, traced, disableFF bool) machineRun {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for n := 0; n < cfg.Nodes; n++ {
		sys.AddProcess(n, stressStream(rng, iters, uint64(n)))
		sys.AddProcess(n, stressStream(rng, iters, uint64(n+cfg.Nodes)))
	}
	opt := RunOptions{
		Label:              "fuzz-machine",
		WarmupInstructions: warmup,
		MaxCycles:          20_000_000,
		DisableFastForward: disableFF,
	}
	var jsonl bytes.Buffer
	if telInterval > 0 {
		opt.Telemetry = telemetry.New(telInterval)
		opt.Telemetry.Attach(telemetry.NewJSONLSink(nopCloser{&jsonl}), nil)
	}
	if ckInterval > 0 {
		opt.Checkpoint = &CheckpointOptions{
			Path:     filepath.Join(t.TempDir(), "machine.ckpt"),
			Interval: ckInterval,
			Workload: nopCheckpointer{},
		}
	}
	if traced {
		opt.Tracer = tracing.New(tracing.Options{})
	}
	rep, err := sys.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Telemetry != nil {
		if err := opt.Telemetry.Close(); err != nil {
			t.Fatal(err)
		}
	}
	res := machineRun{rep: rep, jsonl: jsonl.Bytes(), cycles: sys.Cycle(), skips: sys.SkipStats()}
	if traced {
		var buf bytes.Buffer
		if err := opt.Tracer.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		res.trace = buf.Bytes()
	}
	return res
}

// FuzzMachineConfig is the machine-level differential oracle for
// fast-forward: over a space of whole-machine configurations running
// TestNextEventConservatismStress's shared-memory streams, a run with
// fast-forward (per-core skip runs) must equal the same run ticking every
// cycle — the Report field for field, the telemetry JSONL and (when
// traced) the exported trace byte for byte — with the coherence,
// consistency and issue-scheduler checkers on in both, through warm-up
// resets, telemetry samples and checkpoint captures. Failing inputs the
// fuzzer finds are kept under testdata/fuzz/FuzzMachineConfig.
//
//	go test -run '^$' -fuzz '^FuzzMachineConfig$' -fuzztime 60s ./internal/core/
func FuzzMachineConfig(f *testing.F) {
	// Seed corpus: the configurations TestNextEventConservatismStress
	// draws, spread over every model, implementation and latch policy.
	for i := range uint8(9) {
		f.Add(uint64(20260808+int(i)), i, i%3, i/3, i%4 == 3, i%3, i%2, i*3, i%3 == 0, uint8(i), uint8(i*5), uint8(i%3), i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nodes, model, impl uint8, inOrder bool, latch, sbuf, mshrs uint8, faults bool, tel, ck, warm uint8, traced bool) {
		cfg := machineConfig(nodes, model, impl, inOrder, latch, sbuf, mshrs, faults, seed)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		var telInterval, ckInterval uint64
		if tel%4 != 0 {
			telInterval = 2_000 * uint64(1+tel%32)
		}
		if ck%2 != 0 {
			ckInterval = 10_000 * uint64(1+ck%16)
		}
		warmup := 100 * uint64(warm%4)
		fast := runStressMachine(t, cfg, seed, 40, warmup, telInterval, ckInterval, traced, false)
		plain := runStressMachine(t, cfg, seed, 40, warmup, telInterval, ckInterval, traced, true)
		if !reflect.DeepEqual(fast.rep, plain.rep) {
			t.Fatalf("reports differ:\nfast  %+v\nplain %+v", fast.rep, plain.rep)
		}
		if !bytes.Equal(fast.jsonl, plain.jsonl) {
			t.Fatalf("telemetry JSONL differs (%d vs %d bytes)", len(fast.jsonl), len(plain.jsonl))
		}
		if !bytes.Equal(fast.trace, plain.trace) {
			t.Fatalf("exported traces differ (%d vs %d bytes)", len(fast.trace), len(plain.trace))
		}
		for i, sk := range fast.skips {
			if sk.Ticked+sk.Skipped != fast.cycles {
				t.Fatalf("core %d: %d ticked + %d skipped cycles, run covered %d", i, sk.Ticked, sk.Skipped, fast.cycles)
			}
		}
	})
}

// TestSkipStatsCoverEveryCoreCycle checks the simulator-self accounting:
// every core-cycle of a run is either ticked or skipped, a run without
// fast-forward ticks them all, and a run with it skips some in runs of
// more than one cycle on average.
func TestSkipStatsCoverEveryCoreCycle(t *testing.T) {
	cfg := machineConfig(3, 0, 0, false, 0, 0, 7, false, 1)
	fast := runStressMachine(t, cfg, 1, 80, 0, 0, 0, false, false)
	plain := runStressMachine(t, cfg, 1, 80, 0, 0, 0, false, true)
	if fast.cycles != plain.cycles {
		t.Fatalf("fast run took %d cycles, plain run %d", fast.cycles, plain.cycles)
	}
	var skipped, runs uint64
	for i := range fast.skips {
		f, p := fast.skips[i], plain.skips[i]
		if f.Ticked+f.Skipped != fast.cycles {
			t.Errorf("core %d: %d ticked + %d skipped cycles, run covered %d", i, f.Ticked, f.Skipped, fast.cycles)
		}
		if p.Ticked != plain.cycles || p.Skipped != 0 || p.Runs != 0 {
			t.Errorf("core %d without fast-forward: %+v, want %d ticked cycles", i, p, plain.cycles)
		}
		skipped, runs = skipped+f.Skipped, runs+f.Runs
	}
	if runs == 0 || skipped <= runs {
		t.Errorf("fast-forward skipped %d cycles in %d runs", skipped, runs)
	}
}
