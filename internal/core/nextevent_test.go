package core

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// TestNextEventConservatismStress is the white-box guarantee behind the
// idle-cycle skip: a per-core bound computed on a retire-free tick must
// never be late. The test runs randomized machines over lock-heavy
// shared-memory streams, ticking EVERY cycle, but carries cached bounds
// exactly as the production loop would — consuming the same invalidation channels (TakePoked, the lock
// table's release generation) — and fails if a core retires an
// instruction or switches context at a cycle an active bound claimed was
// quiet. A failure here means FastForward would have skipped real work
// and a fast-forwarded run would diverge from the plain cycle loop.
//
// Early (conservative) bounds are always legal; only late ones are bugs.
func TestNextEventConservatismStress(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		cfg := config.Default()
		cfg.DebugChecks = true // includes the issue scheduler's invariant
		cfg.Nodes = []int{1, 2, 4, 4}[rng.Intn(4)]
		cfg.InOrder = rng.Intn(4) == 0
		cfg.IssueWidth = []int{2, 4}[rng.Intn(2)]
		cfg.WindowSize = []int{16, 32, 64, 128}[rng.Intn(4)]
		cfg.Consistency = []config.ConsistencyModel{config.RC, config.PC, config.SC}[rng.Intn(3)]
		cfg.ConsistencyOpts = []config.ConsistencyImpl{
			config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative,
		}[rng.Intn(3)]
		cfg.LatchPolicy = []config.LatchPolicy{
			config.LatchPlain, config.LatchHints, config.LatchHTM,
		}[rng.Intn(3)]
		cfg.StreamBufEntries = []int{0, 2}[rng.Intn(2)]
		cfg.L1D.MSHRs = []int{2, 8}[rng.Intn(2)]
		if rng.Intn(3) == 0 {
			cfg.Faults = config.FaultConfig{
				Enabled:        true,
				Seed:           rng.Uint64(),
				MeshDelayProb:  0.05,
				MeshDelayMax:   30,
				NACKProb:       0.02,
				NACKMaxRetries: 3,
				NACKBackoff:    15,
				MemStallProb:   0.05,
				MemStallCycles: 40,
			}
		}
		t.Logf("trial %d: nodes=%d inorder=%v width=%d window=%d %v/%v latch=%v sbuf=%d mshrs=%d faults=%v",
			trial, cfg.Nodes, cfg.InOrder, cfg.IssueWidth, cfg.WindowSize,
			cfg.Consistency, cfg.ConsistencyOpts, cfg.LatchPolicy,
			cfg.StreamBufEntries, cfg.L1D.MSHRs, cfg.Faults.Enabled)

		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two processes per core so the scheduler's switch/unblock timing is
		// exercised (syscalls in the streams force blocking and wakeups).
		for n := 0; n < cfg.Nodes; n++ {
			sys.AddProcess(n, stressStream(rng, 120, uint64(n)))
			sys.AddProcess(n, stressStream(rng, 120, uint64(n+cfg.Nodes)))
		}
		runConservatismLoop(t, sys, trial)
	}
}

// stressStream mixes every cross-core coupling the bounds must account
// for: loads/stores on a shared region (invalidations, and under
// ImplSpeculative, pokes), a contended lock critical section (release
// generation), private pointer walks (cache misses with long fixed
// latencies), FP work, and blocking syscalls (scheduler switches).
func stressStream(rng *rand.Rand, iters int, id uint64) *trace.SliceStream {
	var ins []trace.Instr
	const loopPC = uint64(0x30000)
	const shared = uint64(0xA00000) // region all processes hit
	const lockAddr = uint64(0xB00000)
	private := uint64(0xC00000) + id<<20
	for i := 0; i < iters; i++ {
		pc := loopPC
		emit := func(in trace.Instr) {
			in.PC = pc
			pc += 4
			ins = append(ins, in)
		}
		switch rng.Intn(5) {
		case 0: // shared-region read-modify-write (coherence traffic)
			off := uint64(rng.Intn(8)) * 64
			emit(trace.Instr{Op: trace.OpLoad, Addr: shared + off, Dest: 1})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 1, Dest: 2})
			emit(trace.Instr{Op: trace.OpStore, Addr: shared + off, Src1: 2})
		case 1: // lock-protected counter (release-generation channel)
			// The load consumes the acquire's result, which retirement
			// re-times when the read-modify-write performs.
			emit(trace.Instr{Op: trace.OpLockAcquire, Addr: lockAddr, Dest: 6})
			emit(trace.Instr{Op: trace.OpLoad, Addr: lockAddr + 64, Src1: 6, Dest: 1})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 1, Dest: 2})
			emit(trace.Instr{Op: trace.OpStore, Addr: lockAddr + 64, Src1: 2})
			emit(trace.Instr{Op: trace.OpWriteBar})
			emit(trace.Instr{Op: trace.OpLockRelease, Addr: lockAddr})
		case 2: // private walk (long fixed-latency misses)
			emit(trace.Instr{Op: trace.OpLoad, Addr: private, Dest: 3})
			emit(trace.Instr{Op: trace.OpFPALU, Src1: 3, Dest: 4})
			emit(trace.Instr{Op: trace.OpStore, Addr: private + 8, Src1: 4})
			private += 64
		case 3: // blocking syscall (scheduler switch + timed wakeup)
			emit(trace.Instr{Op: trace.OpIntALU, Dest: 5})
			emit(trace.Instr{Op: trace.OpSyscall, Latency: uint32(500 + rng.Intn(2000))})
		case 4: // dependent ALU chain ending in a store barrier
			emit(trace.Instr{Op: trace.OpIntALU, Dest: 1})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 1, Dest: 2})
			emit(trace.Instr{Op: trace.OpIntALU, Src1: 2, Dest: 3})
			emit(trace.Instr{Op: trace.OpMemBar})
		}
		ins = append(ins, trace.Instr{
			Op: trace.OpBranch, PC: pc, Src1: 1, Taken: i < iters-1, Target: loopPC,
		})
	}
	return trace.NewSliceStream(ins)
}

// runConservatismLoop drives the machine one cycle at a time, carrying
// cached per-core bounds with the production loop's exact invalidation
// rules, and asserts no bound is ever late.
func runConservatismLoop(t *testing.T, s *System, trial int) {
	t.Helper()
	const maxCycles = 3_000_000
	wake := make([]uint64, len(s.cores))
	coreRet := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		coreRet[i] = c.Retired
	}
	lockGen := s.locks.gen
	for {
		s.cycle++
		allDone := true
		for i, c := range s.cores {
			if s.locks.gen != lockGen {
				// A lock release (this cycle from an earlier core, or last
				// cycle) voids every cached bound, exactly as in Run.
				lockGen = s.locks.gen
				for k := range wake {
					wake[k] = 0
				}
			}
			active := wake[i] > s.cycle
			if active && c.TakePoked() {
				// The skip path consumes the poke and re-ticks; so do we.
				wake[i] = 0
				active = false
			}
			ctxBefore := c.Context()
			s.sch.Tick(i, c, s.cycle)
			c.Tick(s.cycle)
			if rr := c.Retired; rr != coreRet[i] {
				if active {
					t.Fatalf("trial %d: core %d retired at cycle %d under active bound %d (computed bound is late: FastForward would have skipped a retire)",
						trial, i, s.cycle, wake[i])
				}
				coreRet[i] = rr
				wake[i] = 0
			} else if active && c.Context() != ctxBefore {
				t.Fatalf("trial %d: core %d switched context at cycle %d under active bound %d",
					trial, i, s.cycle, wake[i])
			} else if !active {
				w := s.sch.NextEvent(i, c, s.cycle)
				if cw := c.NextEvent(s.cycle); cw < w {
					w = cw
				}
				wake[i] = w
			}
			if c.Context() != nil || s.sch.Pending(i) {
				allDone = false
			}
		}
		if allDone {
			return
		}
		if s.cycle >= maxCycles {
			t.Fatalf("trial %d: machine did not finish within %d cycles", trial, maxCycles)
		}
	}
}
