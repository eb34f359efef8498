package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// coreConfig decodes one FuzzCoreConfig input into a single-node
// configuration with the scheduler invariant checked every cycle.
func coreConfig(width, window, mshrs, model, impl uint8, inOrder bool, latch, lat uint8) config.Config {
	cfg := config.Default()
	cfg.Nodes = 1
	cfg.IssueWidth = 1 + int(width%8)
	cfg.WindowSize = max(16+int(window)%113, cfg.IssueWidth) // 16..128
	cfg.L1D.MSHRs = 1 + int(mshrs%16)
	cfg.L2.MSHRs = cfg.L1D.MSHRs
	cfg.Consistency = []config.ConsistencyModel{config.RC, config.PC, config.SC}[model%3]
	cfg.ConsistencyOpts = []config.ConsistencyImpl{config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative}[impl%3]
	cfg.InOrder = inOrder
	cfg.LatchPolicy = []config.LatchPolicy{config.LatchPlain, config.LatchHints, config.LatchHTM}[latch%3]
	cfg.IntLatency = 1 + int(lat%4)
	cfg.FPLatency = 4 * cfg.IntLatency
	cfg.DebugChecks = true
	return cfg
}

// FuzzCoreConfig ticks one core through randomStream every cycle over a
// space of configurations and checks the next-event contract of
// TestNextEventNeverLate on each: between a cycle and the bound NextEvent
// returned for it, no tick may retire, dispatch, fetch, generate an
// address, access the cache or issue a consistency prefetch. A poke (a
// line invalidation under a speculative load or a transaction) voids the
// bound, as it does in the machine's run loop. The seed corpus is
// TestIssueGolden's configuration matrix; failing inputs the fuzzer
// finds are kept under testdata/fuzz/FuzzCoreConfig.
//
//	go test -run '^$' -fuzz '^FuzzCoreConfig$' -fuzztime 60s ./internal/cpu/
func FuzzCoreConfig(f *testing.F) {
	for model := range uint8(3) {
		for impl := range uint8(3) {
			for latch := range uint8(3) {
				for _, w := range []uint8{0, 48, 112} { // windows 16, 64 and 128
					f.Add(uint64(model)*9+uint64(impl)*3+uint64(latch), uint8(3), w, uint8(7), model, impl, false, latch, uint8(0))
				}
				f.Add(uint64(model)*9+uint64(impl)*3+uint64(latch), uint8(3), uint8(48), uint8(7), model, impl, true, latch, uint8(0))
			}
		}
	}
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
	f.Fuzz(func(t *testing.T, seed uint64, width, window, mshrs, model, impl uint8, inOrder bool, latch, lat uint8) {
		cfg := coreConfig(width, window, mshrs, model, impl, inOrder, latch, lat)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		ins := randomStream(seed, 600)
		ms := memsys.MustNew(cfg)
		c := New(cfg, 0, ms.Node(0), newTestLocks())
		c.SwitchTo(&Context{ID: 0, Stream: trace.NewSliceStream(ins)})
		bound, prev := uint64(0), snap(c)
		for cycle := uint64(1); !c.NeedsSwitch(); cycle++ {
			if cycle >= 2_000_000 {
				t.Fatalf("%+v: pipeline hung (%s)", cfg, c.String())
			}
			c.Tick(cycle)
			cur := snap(c)
			if cycle < bound && cur != prev {
				t.Fatalf("core acted at cycle %d, NextEvent promised quiet until %d (width %d window %d mshrs %d %v-%v inorder %v latch %v latency %d)",
					cycle, bound, cfg.IssueWidth, cfg.WindowSize, cfg.L1D.MSHRs, cfg.Consistency, cfg.ConsistencyOpts,
					cfg.InOrder, cfg.LatchPolicy, cfg.IntLatency)
			}
			prev = cur
			if c.TakePoked() || cycle >= bound {
				bound = c.NextEvent(cycle)
			}
		}
		want := uint64(0)
		for _, in := range ins {
			if in.Op != trace.OpSyscall {
				want++
			}
		}
		if c.Retired != want {
			t.Fatalf("retired %d of %d", c.Retired, want)
		}
	})
}
