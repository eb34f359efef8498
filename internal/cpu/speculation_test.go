package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// TestSpeculativeLoadViolationRollsBack constructs the classic SC ordering
// hazard: a speculative load consumes a value early, another processor
// writes the line before the load is allowed to retire, and the core must
// detect the invalidation and re-execute from the load (Section 3.4).
func TestSpeculativeLoadViolationRollsBack(t *testing.T) {
	cfg := config.Default()
	cfg.Consistency = config.SC
	cfg.ConsistencyOpts = config.ImplSpeculative
	ms := memsys.MustNew(cfg)
	locks := newTestLocks()

	c0 := New(cfg, 0, ms.Node(0), locks)
	c1 := New(cfg, 1, ms.Node(1), locks)

	const yAddr = 0x100000 // long-latency blocker at the window head
	const xAddr = 0x200000 // speculatively loaded, then remotely written

	// Pre-home X at node 1 so its write later is fast, and warm node 0's
	// TLBs off the critical path by touching different pages first.
	ms.Node(1).DataWrite(xAddr, 1, 1, false)

	ins0 := []trace.Instr{
		{Op: trace.OpLoad, PC: 4, Addr: yAddr, Dest: 1}, // cold miss: ~100+ cycles at head
		{Op: trace.OpLoad, PC: 8, Addr: xAddr, Dest: 2}, // speculative under SC
		{Op: trace.OpIntALU, PC: 12, Src1: 2, Dest: 3},  // consumes the speculative value
		{Op: trace.OpIntALU, PC: 16, Src1: 1, Dest: 4},
	}
	// Node 1 writes X after a delay long enough for node 0 to have issued
	// the speculative load, but before node 0's head load completes.
	var ins1 []trace.Instr
	pc := uint64(4)
	for i := 0; i < 15; i++ { // ~15 cycles of filler
		ins1 = append(ins1, trace.Instr{Op: trace.OpIntALU, PC: pc, Dest: 1})
		pc += 4
	}
	ins1 = append(ins1, trace.Instr{Op: trace.OpStore, PC: pc, Addr: xAddr, Src1: 1})

	c0.SwitchTo(&Context{ID: 0, Stream: trace.NewSliceStream(ins0)})
	c1.SwitchTo(&Context{ID: 1, Stream: trace.NewSliceStream(ins1)})

	for cycle := uint64(1); cycle < 1_000_000; cycle++ {
		c0.Tick(cycle)
		c1.Tick(cycle)
		if c0.NeedsSwitch() && c1.NeedsSwitch() {
			break
		}
	}
	if c0.Retired != uint64(len(ins0)) {
		t.Fatalf("core 0 retired %d of %d", c0.Retired, len(ins0))
	}
	if c0.SpecLoads == 0 {
		t.Fatal("no speculative loads issued under SC+speculation")
	}
	if c0.Violations == 0 {
		t.Fatal("remote write during speculation did not trigger a violation")
	}
	if c0.Rollbacks == 0 {
		t.Fatal("violation did not cause a rollback")
	}
}

// TestNoViolationWithoutConflict: the same program with no remote writer
// must complete without rollbacks.
func TestNoViolationWithoutConflict(t *testing.T) {
	cfg := config.Default()
	cfg.Nodes = 1
	cfg.Consistency = config.SC
	cfg.ConsistencyOpts = config.ImplSpeculative
	ms := memsys.MustNew(cfg)
	c := New(cfg, 0, ms.Node(0), newTestLocks())
	ins := []trace.Instr{
		{Op: trace.OpLoad, PC: 4, Addr: 0x100000, Dest: 1},
		{Op: trace.OpLoad, PC: 8, Addr: 0x200000, Dest: 2},
		{Op: trace.OpIntALU, PC: 12, Src1: 2, Dest: 3},
	}
	c.SwitchTo(&Context{ID: 0, Stream: trace.NewSliceStream(ins)})
	for cycle := uint64(1); cycle < 100_000 && !c.NeedsSwitch(); cycle++ {
		c.Tick(cycle)
	}
	if c.Retired != 3 {
		t.Fatalf("retired %d", c.Retired)
	}
	if c.Violations != 0 || c.Rollbacks != 0 {
		t.Errorf("spurious violations=%d rollbacks=%d", c.Violations, c.Rollbacks)
	}
}

// TestRollbackSchedulerInvariant runs four cores sharing data under SC
// with speculative loads and the invariant checker on, so remote stores
// squash speculative loads and the rollbacks refile the window: every
// rolled-back entry must come back with the ready-set class its address
// state gives, every cycle.
func TestRollbackSchedulerInvariant(t *testing.T) {
	cfg := config.Default()
	cfg.Consistency = config.SC
	cfg.ConsistencyOpts = config.ImplSpeculative
	cfg.DebugChecks = true
	ms := memsys.MustNew(cfg)
	locks := newTestLocks()
	var cores []*Core
	for n := 0; n < 4; n++ {
		c := New(cfg, n, ms.Node(n), locks)
		c.SwitchTo(&Context{ID: n, Stream: trace.NewSliceStream(randomStream(uint64(n+100), 600))})
		cores = append(cores, c)
	}
	for cycle := uint64(1); cycle < 5_000_000; cycle++ {
		running := false
		for _, c := range cores {
			c.Tick(cycle)
			if !c.NeedsSwitch() {
				running = true
			}
		}
		if !running {
			break
		}
	}
	var rollbacks uint64
	for n, c := range cores {
		if !c.NeedsSwitch() {
			t.Fatalf("core %d did not finish (%s)", n, c.String())
		}
		rollbacks += c.Rollbacks
	}
	if rollbacks == 0 {
		t.Fatal("no rollbacks: the test does not exercise rollback refiling")
	}
}
