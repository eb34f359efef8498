package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testLocks is a minimal lock manager for single-core tests.
type testLocks struct {
	held   map[uint64]int
	freeAt map[uint64]uint64
}

func newTestLocks() *testLocks {
	return &testLocks{held: map[uint64]int{}, freeAt: map[uint64]uint64{}}
}

func (l *testLocks) TryAcquire(addr uint64, proc int, now uint64) bool {
	if o, ok := l.held[addr]; ok {
		return o == proc
	}
	if now < l.freeAt[addr] {
		return false
	}
	l.held[addr] = proc
	return true
}

func (l *testLocks) Release(addr uint64, proc int, at uint64) {
	delete(l.held, addr)
	l.freeAt[addr] = at
}

// runCore executes a stream to completion on a single core and returns it.
func runCore(t *testing.T, cfg config.Config, ins []trace.Instr) *Core {
	t.Helper()
	cfg.Nodes = 1
	ms := memsys.MustNew(cfg)
	c := New(cfg, 0, ms.Node(0), newTestLocks())
	c.SwitchTo(&Context{ID: 0, Stream: trace.NewSliceStream(ins)})
	for cycle := uint64(1); cycle < 3_000_000; cycle++ {
		c.Tick(cycle)
		if c.NeedsSwitch() {
			c.TakeContext(cycle)
			return c
		}
	}
	t.Fatal("stream did not finish")
	return nil
}

// loop builds a simple loop body repeated n times at fixed PCs.
func loop(n int, body func(emit func(trace.Instr), iter int)) []trace.Instr {
	var ins []trace.Instr
	for i := 0; i < n; i++ {
		pc := uint64(0x1000)
		emit := func(in trace.Instr) {
			in.PC = pc
			pc += 4
			ins = append(ins, in)
		}
		body(emit, i)
		ins = append(ins, trace.Instr{Op: trace.OpBranch, PC: pc, Taken: i < n-1, Target: 0x1000})
	}
	return ins
}

func TestRetiresAllInstructions(t *testing.T) {
	ins := loop(100, func(emit func(trace.Instr), i int) {
		emit(trace.Instr{Op: trace.OpIntALU, Dest: 1})
		emit(trace.Instr{Op: trace.OpIntALU, Src1: 1, Dest: 2})
		emit(trace.Instr{Op: trace.OpLoad, Addr: 0x10_0000 + uint64(i)*8, Dest: 3})
		emit(trace.Instr{Op: trace.OpStore, Addr: 0x10_0000 + uint64(i)*8, Src1: 3})
	})
	c := runCore(t, config.Default(), ins)
	if c.Retired != uint64(len(ins)) {
		t.Errorf("retired %d of %d", c.Retired, len(ins))
	}
	if c.Bk.Total() == 0 {
		t.Error("no execution time accounted")
	}
}

func TestOOOFasterThanInOrderOnIndependentMisses(t *testing.T) {
	// Independent loads to distinct lines: OOO overlaps them, in-order
	// stalls at the first use.
	mk := func() []trace.Instr {
		return loop(400, func(emit func(trace.Instr), i int) {
			base := 0x20_0000 + uint64(i)*256
			emit(trace.Instr{Op: trace.OpLoad, Addr: base, Dest: 1})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 1, Dest: 2})
			emit(trace.Instr{Op: trace.OpLoad, Addr: base + 64, Dest: 3})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 3, Dest: 4})
			emit(trace.Instr{Op: trace.OpLoad, Addr: base + 128, Dest: 5})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 5, Dest: 6})
		})
	}
	ooo := config.Default()
	cycOOO := coreCycles(t, ooo, mk())
	iord := config.Default()
	iord.InOrder = true
	cycIn := coreCycles(t, iord, mk())
	if float64(cycIn) < float64(cycOOO)*1.15 {
		t.Errorf("in-order (%d cycles) not sufficiently slower than OOO (%d)", cycIn, cycOOO)
	}
}

func coreCycles(t *testing.T, cfg config.Config, ins []trace.Instr) uint64 {
	t.Helper()
	cfg.Nodes = 1
	ms := memsys.MustNew(cfg)
	c := New(cfg, 0, ms.Node(0), newTestLocks())
	c.SwitchTo(&Context{ID: 0, Stream: trace.NewSliceStream(ins)})
	for cycle := uint64(1); cycle < 5_000_000; cycle++ {
		c.Tick(cycle)
		if c.NeedsSwitch() {
			return cycle
		}
	}
	t.Fatal("did not finish")
	return 0
}

func TestSyscallTriggersSwitch(t *testing.T) {
	ins := []trace.Instr{
		{Op: trace.OpIntALU, PC: 4, Dest: 1},
		{Op: trace.OpSyscall, PC: 8, Latency: 5000},
		{Op: trace.OpIntALU, PC: 12, Dest: 2},
	}
	cfg := config.Default()
	cfg.Nodes = 1
	ms := memsys.MustNew(cfg)
	c := New(cfg, 0, ms.Node(0), newTestLocks())
	ctx := &Context{ID: 0, Stream: trace.NewSliceStream(ins)}
	c.SwitchTo(ctx)
	var switched uint64
	for cycle := uint64(1); cycle < 100_000; cycle++ {
		c.Tick(cycle)
		if c.NeedsSwitch() {
			got := c.TakeContext(cycle)
			if got != ctx {
				t.Fatal("wrong context returned")
			}
			switched = cycle
			break
		}
	}
	if switched == 0 {
		t.Fatal("syscall never triggered a switch")
	}
	if ctx.BlockedUntil != switched+5000 {
		t.Errorf("BlockedUntil = %d, want %d", ctx.BlockedUntil, switched+5000)
	}
	if ctx.Finished {
		t.Error("context wrongly finished; one instruction remains")
	}
	if ctx.Retired != 1 {
		t.Errorf("retired %d before the syscall, want 1", ctx.Retired)
	}
	// Resume: the remaining instruction must retire and the stream end.
	c.SwitchTo(ctx)
	for cycle := uint64(200_000); cycle < 300_000; cycle++ {
		c.Tick(cycle)
		if c.NeedsSwitch() {
			c.TakeContext(cycle)
			break
		}
	}
	if !ctx.Finished || ctx.Retired != 2 {
		t.Errorf("after resume: finished=%v retired=%d", ctx.Finished, ctx.Retired)
	}
}

func TestLockAcquireReleaseSequence(t *testing.T) {
	const lock = 0x30_0000
	ins := []trace.Instr{
		{Op: trace.OpLockAcquire, PC: 4, Addr: lock, Dest: 1},
		{Op: trace.OpLoad, PC: 8, Addr: lock + 64, Dest: 2},
		{Op: trace.OpIntALU, PC: 12, Src1: 2, Dest: 3},
		{Op: trace.OpStore, PC: 16, Addr: lock + 64, Src1: 3},
		{Op: trace.OpWriteBar, PC: 20},
		{Op: trace.OpLockRelease, PC: 24, Addr: lock, Src1: 3},
	}
	cfg := config.Default()
	cfg.Nodes = 1
	ms := memsys.MustNew(cfg)
	locks := newTestLocks()
	c := New(cfg, 0, ms.Node(0), locks)
	ctx := &Context{ID: 0, Stream: trace.NewSliceStream(ins)}
	c.SwitchTo(ctx)
	for cycle := uint64(1); cycle < 100_000 && !c.NeedsSwitch(); cycle++ {
		c.Tick(cycle)
	}
	if _, held := locks.held[lock]; held {
		t.Error("lock still held after release retired")
	}
	if ctx.InCriticalSection() {
		t.Error("critical-section depth not restored")
	}
	if c.LockTries == 0 {
		t.Error("no lock activity recorded")
	}
}

func TestSCSlowerThanRC(t *testing.T) {
	mk := func() []trace.Instr {
		return loop(300, func(emit func(trace.Instr), i int) {
			base := 0x40_0000 + uint64(i)*192
			emit(trace.Instr{Op: trace.OpLoad, Addr: base, Dest: 1})
			emit(trace.Instr{Op: trace.OpStore, Addr: base + 64, Src1: 1})
			emit(trace.Instr{Op: trace.OpLoad, Addr: base + 128, Dest: 2})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 2, Dest: 3})
		})
	}
	rc := config.Default()
	rcCycles := coreCycles(t, rc, mk())
	sc := config.Default()
	sc.Consistency = config.SC
	scCycles := coreCycles(t, sc, mk())
	if scCycles <= rcCycles {
		t.Errorf("straightforward SC (%d) not slower than RC (%d)", scCycles, rcCycles)
	}
	// Speculation closes most of the gap.
	scSpec := config.Default()
	scSpec.Consistency = config.SC
	scSpec.ConsistencyOpts = config.ImplSpeculative
	specCycles := coreCycles(t, scSpec, mk())
	if specCycles >= scCycles {
		t.Errorf("SC+speculation (%d) not faster than plain SC (%d)", specCycles, scCycles)
	}
}

func TestWriteStallAccountedUnderSC(t *testing.T) {
	ins := loop(200, func(emit func(trace.Instr), i int) {
		emit(trace.Instr{Op: trace.OpStore, Addr: 0x50_0000 + uint64(i)*64, Src1: 0})
		emit(trace.Instr{Op: trace.OpIntALU, Dest: 1})
	})
	cfg := config.Default()
	cfg.Consistency = config.SC
	c := runCore(t, cfg, ins)
	if c.Bk[stats.Write] == 0 {
		t.Error("SC store-at-head stalls not accounted as write time")
	}
}

func TestInOrderClampsWindow(t *testing.T) {
	cfg := config.Default()
	cfg.InOrder = true
	cfg.Nodes = 1
	ms := memsys.MustNew(cfg)
	c := New(cfg, 0, ms.Node(0), newTestLocks())
	// The ring holds the clamped window rounded up to a power of two.
	if w := c.cfg.WindowSize; w > 2*cfg.IssueWidth+8 || len(c.rob) >= 2*w {
		t.Errorf("in-order window not clamped: window %d, ring %d", w, len(c.rob))
	}
}

func TestBranchMispredictStallsFetch(t *testing.T) {
	// A data-dependent branch with an unpredictable pattern behind a load:
	// resolution latency must show up as lost time vs a predictable one.
	mk := func(pattern func(int) bool) []trace.Instr {
		return loop(600, func(emit func(trace.Instr), i int) {
			emit(trace.Instr{Op: trace.OpLoad, Addr: 0x60_0000 + uint64(i%4)*8, Dest: 1})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 1, Dest: 2})
		})
	}
	_ = mk
	pred := loop(600, func(emit func(trace.Instr), i int) {
		emit(trace.Instr{Op: trace.OpIntALU, Dest: 1})
		emit(trace.Instr{Op: trace.OpBranch, Src1: 1, Taken: true, Target: 0x2000})
		emit(trace.Instr{Op: trace.OpIntALU, Dest: 2})
	})
	unpred := loop(600, func(emit func(trace.Instr), i int) {
		emit(trace.Instr{Op: trace.OpIntALU, Dest: 1})
		// LCG-ish pseudo-random outcome defeats the predictor.
		taken := (i*2654435761)>>13&1 == 0
		emit(trace.Instr{Op: trace.OpBranch, Src1: 1, Taken: taken, Target: 0x2000})
		emit(trace.Instr{Op: trace.OpIntALU, Dest: 2})
	})
	cfg := config.Default()
	cp := coreCycles(t, cfg, pred)
	cu := coreCycles(t, cfg, unpred)
	if cu <= cp {
		t.Errorf("unpredictable branches (%d cycles) not slower than predictable (%d)", cu, cp)
	}
}
