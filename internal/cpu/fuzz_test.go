package cpu

import (
	"math/rand/v2"
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// randomStream builds a random but control-flow-consistent instruction
// stream: a torture test for the pipeline (no hangs, everything retires).
func randomStream(seed uint64, n int) []trace.Instr {
	rng := rand.New(rand.NewPCG(seed, 17))
	var ins []trace.Instr
	pc := uint64(0x1000)
	csDepth := 0
	lockAddr := uint64(0x70_0000)
	for len(ins) < n {
		emit := func(in trace.Instr) {
			in.PC = pc
			ins = append(ins, in)
			pc += 4
		}
		switch rng.IntN(14) {
		case 0, 1, 2, 3:
			emit(trace.Instr{Op: trace.OpIntALU, Src1: uint8(rng.IntN(8)), Dest: uint8(rng.IntN(8) + 1)})
		case 4:
			emit(trace.Instr{Op: trace.OpFPALU, Src1: uint8(rng.IntN(8)), Dest: uint8(rng.IntN(8) + 1)})
		case 5, 6:
			emit(trace.Instr{Op: trace.OpLoad, Addr: 0x10_0000 + uint64(rng.IntN(1<<16))&^7, Dest: uint8(rng.IntN(8) + 1)})
		case 7:
			emit(trace.Instr{Op: trace.OpStore, Addr: 0x10_0000 + uint64(rng.IntN(1<<16))&^7, Src1: uint8(rng.IntN(8))})
		case 8:
			// Control-flow-consistent branch.
			taken := rng.IntN(2) == 0
			target := pc + 4 + uint64(rng.IntN(8))*4
			in := trace.Instr{Op: trace.OpBranch, PC: pc, Taken: taken, Target: target, Src1: uint8(rng.IntN(8))}
			ins = append(ins, in)
			if taken {
				pc = target
			} else {
				pc += 4
			}
		case 9:
			if csDepth == 0 {
				emit(trace.Instr{Op: trace.OpLockAcquire, Addr: lockAddr, Dest: 1})
				csDepth++
			}
		case 10:
			if csDepth > 0 {
				emit(trace.Instr{Op: trace.OpWriteBar})
				emit(trace.Instr{Op: trace.OpLockRelease, Addr: lockAddr, Src1: 1})
				csDepth--
			}
		case 11:
			emit(trace.Instr{Op: trace.OpMemBar})
		case 12:
			emit(trace.Instr{Op: trace.OpPrefetch, Addr: 0x20_0000 + uint64(rng.IntN(1<<14))})
		case 13:
			emit(trace.Instr{Op: trace.OpFlush, Addr: 0x10_0000 + uint64(rng.IntN(1<<16))&^7})
		}
	}
	// Close any open critical section so locks drain.
	if csDepth > 0 {
		ins = append(ins, trace.Instr{Op: trace.OpWriteBar, PC: pc})
		pc += 4
		ins = append(ins, trace.Instr{Op: trace.OpLockRelease, PC: pc, Addr: lockAddr, Src1: 1})
	}
	return ins
}

// TestRandomStreamsComplete fuzzes the core across every consistency model
// and implementation: all instructions must retire, with no deadlock.
func TestRandomStreamsComplete(t *testing.T) {
	models := []config.ConsistencyModel{config.RC, config.PC, config.SC}
	impls := []config.ConsistencyImpl{config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, m := range models {
			for _, impl := range impls {
				for _, inorder := range []bool{false, true} {
					cfg := config.Default()
					cfg.Nodes = 1
					cfg.Consistency = m
					cfg.ConsistencyOpts = impl
					cfg.InOrder = inorder
					ins := randomStream(seed, 2000)
					ms := memsys.MustNew(cfg)
					c := New(cfg, 0, ms.Node(0), newTestLocks())
					c.SwitchTo(&Context{ID: 0, Stream: trace.NewSliceStream(ins)})
					finished := false
					for cycle := uint64(1); cycle < 2_000_000; cycle++ {
						c.Tick(cycle)
						if c.NeedsSwitch() {
							finished = true
							break
						}
					}
					if !finished {
						t.Fatalf("seed %d %v/%v inorder=%v: pipeline hung (%s)",
							seed, m, impl, inorder, c.String())
					}
					want := uint64(0)
					for _, in := range ins {
						if in.Op != trace.OpSyscall {
							want++
						}
					}
					if c.Retired != want {
						t.Fatalf("seed %d %v/%v inorder=%v: retired %d of %d",
							seed, m, impl, inorder, c.Retired, want)
					}
				}
			}
		}
	}
}

// TestMultiCoreRandomSharing fuzzes four cores sharing data and one lock.
func TestMultiCoreRandomSharing(t *testing.T) {
	cfg := config.Default()
	ms := memsys.MustNew(cfg)
	locks := newTestLocks()
	var cores []*Core
	var want []uint64
	for n := 0; n < 4; n++ {
		c := New(cfg, n, ms.Node(n), locks)
		ins := randomStream(uint64(n+100), 3000)
		var w uint64
		for _, in := range ins {
			if in.Op != trace.OpSyscall {
				w++
			}
		}
		want = append(want, w)
		c.SwitchTo(&Context{ID: n, Stream: trace.NewSliceStream(ins)})
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
	for n, c := range cores {
		if c.Retired != want[n] {
			t.Errorf("core %d retired %d of %d", n, c.Retired, want[n])
		}
	}
}

// TestNextEventNeverLate ticks one core through random streams every
// cycle, with the scheduler invariant on, and checks the next-event
// contract directly: between a cycle and the bound NextEvent returned for
// it, no tick may retire, dispatch, fetch, generate an address, access
// the cache or issue a consistency prefetch. A narrow issue width and
// longer ALU latencies vary which event ends each quiet span.
func TestNextEventNeverLate(t *testing.T) {
	models := []config.ConsistencyModel{config.RC, config.PC, config.SC}
	impls := []config.ConsistencyImpl{config.ImplPlain, config.ImplPrefetch}
	type state struct {
		retired          uint64
		waiting, rob, fq int
		wbuf             int
		entries          uint64 // hash of every window entry's issue progress
	}
	snap := func(c *Core) state {
		s := state{c.Retired, c.waiting, c.robLen(), c.fqLen, c.wbufLen(), 0}
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			e := &c.rob[seq&c.robMask]
			s.entries = s.entries*0x100000001B3 ^ (uint64(e.state) | e.addrDone<<8 | uint64(e.flags&(fIssuedMem|fPrefetch))<<56)
		}
		return s
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, m := range models {
			for _, impl := range impls {
				for _, lat := range []int{1, 3} {
					cfg := config.Default()
					cfg.Nodes = 1
					cfg.Consistency = m
					cfg.ConsistencyOpts = impl
					cfg.IssueWidth = 2
					cfg.IntLatency = lat
					cfg.FPLatency = 4 * lat
					cfg.DebugChecks = true
					ms := memsys.MustNew(cfg)
					c := New(cfg, 0, ms.Node(0), newTestLocks())
					c.SwitchTo(&Context{ID: 0, Stream: trace.NewSliceStream(randomStream(seed+300, 1500))})
					bound, prev := uint64(0), snap(c)
					cycle := uint64(1)
					for ; cycle < 2_000_000 && !c.NeedsSwitch(); cycle++ {
						c.Tick(cycle)
						cur := snap(c)
						if cycle < bound && cur != prev {
							t.Fatalf("seed %d %v/%v latency %d: core acted at cycle %d, NextEvent promised quiet until %d",
								seed, m, impl, lat, cycle, bound)
						}
						prev = cur
						if cycle >= bound {
							bound = c.NextEvent(cycle)
						}
					}
					if !c.NeedsSwitch() {
						t.Fatalf("seed %d %v/%v latency %d: pipeline hung (%s)", seed, m, impl, lat, c.String())
					}
				}
			}
		}
	}
}
