package workload_test

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

// checkPCFlow verifies the control-flow integrity of a generated stream:
// each instruction's PC must follow from the previous one (sequential +4,
// or the declared branch/call/return target when taken). The simulator's
// fetch engine relies on this invariant to model I-cache line crossings.
func checkPCFlow(t *testing.T, s trace.Stream, limit int) {
	t.Helper()
	var in trace.Instr
	expect := uint64(0)
	haveExpect := false
	n := 0
	for n < limit && s.Next(&in) {
		n++
		if haveExpect && in.PC != expect {
			t.Fatalf("instruction %d: PC %#x, control flow expected %#x (prev op)", n, in.PC, expect)
		}
		switch {
		case in.Op == trace.OpBranch:
			if in.Taken {
				expect = in.Target
			} else {
				expect = in.PC + 4
			}
		case in.Op == trace.OpJump || in.Op == trace.OpCall || in.Op == trace.OpReturn:
			expect = in.Target
		default:
			expect = in.PC + 4
		}
		haveExpect = true
	}
	if n == 0 {
		t.Fatal("empty stream")
	}
}

func TestOLTPControlFlowIntegrity(t *testing.T) {
	cfg := oltp.DefaultConfig(1)
	cfg.Processes = 2
	cfg.TransactionsPerProcess = 1
	w := oltp.New(cfg)
	for p := 0; p < cfg.Processes; p++ {
		checkPCFlow(t, w.Stream(p), 200_000)
	}
}

func TestDSSControlFlowIntegrity(t *testing.T) {
	cfg := dss.DefaultConfig(1)
	cfg.Processes = 2
	cfg.RowsPerProcess = 3_000
	w := dss.New(cfg)
	for p := 0; p < cfg.Processes; p++ {
		checkPCFlow(t, w.Stream(p), 300_000)
	}
}

func TestSiteChoiceStable(t *testing.T) {
	for pc := uint64(0); pc < 4096; pc += 4 {
		a := workload.SiteChoice(pc, 16)
		b := workload.SiteChoice(pc, 16)
		if a != b {
			t.Fatal("SiteChoice not deterministic")
		}
		if a < 0 || a >= 16 {
			t.Fatalf("SiteChoice out of range: %d", a)
		}
	}
	// The distribution should cover all buckets.
	seen := map[int]bool{}
	for pc := uint64(0); pc < 1<<14; pc += 4 {
		seen[workload.SiteChoice(pc, 16)] = true
	}
	if len(seen) != 16 {
		t.Errorf("SiteChoice covers %d/16 buckets", len(seen))
	}
}

func TestRoutinesDoNotOverlap(t *testing.T) {
	cs := workload.NewCodeSpace(0x1000)
	r1 := cs.NewRoutine("a", 256)
	r2 := cs.NewRoutine("b", 512)
	if r1.End > r2.Base {
		t.Error("routines overlap")
	}
	if cs.Footprint() != 768 {
		t.Errorf("footprint = %d", cs.Footprint())
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	mk := func() []trace.Instr {
		cfg := oltp.DefaultConfig(1)
		cfg.Processes = 1
		cfg.TransactionsPerProcess = 1
		w := oltp.New(cfg)
		return trace.Collect(w.Stream(0), 50_000)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// maxStepInstrs bounds the instructions one generation step may buffer.
// Streams are generated lazily as the simulated machine consumes them, so
// the generator's footprint must stay small next to the machine's.
const maxStepInstrs = 1024

// TestGenerationBound drains full OLTP and DSS streams and checks that no
// step left more than maxStepInstrs instructions in the emitter's buffer.
func TestGenerationBound(t *testing.T) {
	check := func(name string, procs int, stream func(int) trace.Stream) {
		t.Helper()
		most := 0
		var in trace.Instr
		for p := 0; p < procs; p++ {
			g := stream(p).(*workload.Gen)
			for g.Next(&in) {
			}
			most = max(most, g.MaxBuffered)
		}
		t.Logf("%s: largest step buffered %d instructions", name, most)
		if most > maxStepInstrs {
			t.Errorf("%s: a step buffered %d instructions, bound %d", name, most, maxStepInstrs)
		}
	}

	ocfg := oltp.DefaultConfig(1)
	ocfg.Processes = 4
	ocfg.TransactionsPerProcess = 2
	ow := oltp.New(ocfg)
	check("oltp", ocfg.Processes, ow.Stream)

	// Default batches (8,192 rows) are longer than the scan: the whole
	// partition is one batch.
	dcfg := dss.DefaultConfig(1)
	dcfg.Processes = 4
	dcfg.RowsPerProcess = 4_000
	dw := dss.New(dcfg)
	check("dss", dcfg.Processes, dw.Stream)
}
