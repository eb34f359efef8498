package core

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

func TestLockTable(t *testing.T) {
	lt := NewLockTable()
	if !lt.TryAcquire(100, 1, 10) {
		t.Fatal("free lock not acquirable")
	}
	if lt.TryAcquire(100, 2, 11) {
		t.Fatal("held lock acquired by another process")
	}
	if !lt.TryAcquire(100, 1, 12) {
		t.Fatal("holder must be able to re-acquire (squash replay)")
	}
	lt.Release(100, 1, 50)
	if lt.Held(100) {
		t.Error("lock still held after release")
	}
	if lt.TryAcquire(100, 2, 40) {
		t.Error("lock acquired before its release store performed")
	}
	if !lt.TryAcquire(100, 2, 50) {
		t.Error("lock not acquirable once the release performed")
	}
	// Release by a non-holder is ignored.
	lt.Release(100, 9, 60)
	if !lt.Held(100) {
		t.Error("foreign release dropped the lock")
	}
}

func TestRunHonorsMaxCycles(t *testing.T) {
	cfg := config.Default()
	cfg.Nodes = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A process blocked for a very long time cannot finish in 1000 cycles.
	sys.AddProcess(0, trace.NewSliceStream([]trace.Instr{
		{Op: trace.OpSyscall, PC: 4, Latency: 1 << 30},
		{Op: trace.OpIntALU, PC: 8},
	}))
	_, err = sys.Run(RunOptions{Label: "bounded", MaxCycles: 1000})
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
}

func TestWarmupResetsStatistics(t *testing.T) {
	mk := func(warmup uint64) uint64 {
		cfg := config.Default()
		cfg.Nodes = 1
		sys, _ := NewSystem(cfg)
		sys.AddProcess(0, synthStream(2000, 1<<21))
		rep, err := sys.Run(RunOptions{Label: "w", WarmupInstructions: warmup, MaxCycles: 50_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Instructions
	}
	full := mk(0)
	warmed := mk(3000)
	if warmed >= full {
		t.Errorf("warm-up did not exclude instructions: %d vs %d", warmed, full)
	}
	if full-warmed < 2000 {
		t.Errorf("warm-up excluded too little: %d vs %d", warmed, full)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default()
	cfg.Nodes = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAddProcessOutOfRangePanics(t *testing.T) {
	cfg := config.Default()
	sys, _ := NewSystem(cfg)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sys.AddProcess(99, trace.NewSliceStream(nil))
}

// TestDeterminism: two identical runs must produce identical cycle counts
// and breakdowns (the simulator is fully deterministic).
func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		cfg := config.Default()
		sys, _ := NewSystem(cfg)
		for n := 0; n < cfg.Nodes; n++ {
			sys.AddProcess(n, synthStream(1000, 1<<20))
		}
		rep, err := sys.Run(RunOptions{Label: "det", MaxCycles: 50_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles, rep.Breakdown.Total()
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Errorf("nondeterministic: (%d, %f) vs (%d, %f)", c1, b1, c2, b2)
	}
}

// BenchmarkNewSystem measures building the default machine: the cache tag
// arrays dominate its bytes per operation.
func BenchmarkNewSystem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSystem(config.Default()); err != nil {
			b.Fatal(err)
		}
	}
}
