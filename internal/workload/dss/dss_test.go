package dss

import (
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// workloadEmitterForTest returns an emitter positioned inside a large
// scratch routine, so scanRows can be driven directly.
func workloadEmitterForTest() *workload.Emitter {
	cs := workload.NewCodeSpace(0x7000_0000)
	r := cs.NewRoutine("test", 1<<20)
	e := workload.NewEmitter(42)
	e.Call(r)
	return e
}

func TestStreamScansAndAggregates(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Processes = 2
	cfg.RowsPerProcess = 5_000
	w := New(cfg)
	for proc := 0; proc < cfg.Processes; proc++ {
		s := w.Stream(proc).(interface {
			Next(*trace.Instr) bool
		})
		var in trace.Instr
		var n, loads, fp uint64
		for s.Next(&in) {
			n++
			switch in.Op {
			case trace.OpLoad:
				loads++
			case trace.OpFPALU:
				fp++
			case trace.OpLockAcquire:
				t.Fatal("DSS must not lock (negligible locking activity)")
			}
		}
		if n == 0 {
			t.Fatal("empty stream")
		}
		if fp != 0 {
			t.Errorf("Q6 uses integer NUMBER arithmetic; %d FP ops emitted", fp)
		}
		perRow := float64(n) / float64(cfg.RowsPerProcess)
		if perRow < 8 || perRow > 120 {
			t.Errorf("proc %d: %.1f instructions/row outside plausible range", proc, perRow)
		}
	}
}

func TestRevenueMatchesEngine(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Processes = 1
	cfg.RowsPerProcess = 20_000
	w := New(cfg)
	p := &procState{w: w, proc: 0, accAddr: 1, exprBase: 4096}
	e := workloadEmitterForTest()
	p.scanRows(e, 0, cfg.RowsPerProcess)
	if got, want := p.Revenue(), w.ExpectedRevenue(0); got != want {
		t.Errorf("generated revenue %d != engine revenue %d", got, want)
	}
	if w.ExpectedRevenue(0) == 0 {
		t.Error("no qualifying rows; predicate selectivity broken")
	}
	// Selectivity should be a few percent (1/7 year x ~20% discount band x
	// ~46% quantity).
	var qual int
	for i := 0; i < cfg.RowsPerProcess; i++ {
		if w.li.Qualifies(0, i) {
			qual++
		}
	}
	sel := float64(qual) / float64(cfg.RowsPerProcess)
	if sel < 0.005 || sel > 0.05 {
		t.Errorf("selectivity %.3f outside Q6-like range", sel)
	}
}

// TestRowsScannedCountsWholeBatches checks that a batch's rows are
// counted when the batch starts, however few rows each generation step
// emits, and that every batch ends with the coordinator message.
func TestRowsScannedCountsWholeBatches(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Processes = 1
	cfg.RowsPerProcess = 3_000
	cfg.BatchRows = 700
	w := New(cfg)
	s := w.Stream(0)
	var in trace.Instr
	var counts []uint64
	syscalls := 0
	for s.Next(&in) {
		if n := len(counts); n == 0 || counts[n-1] != w.RowsScanned {
			counts = append(counts, w.RowsScanned)
		}
		if in.Op == trace.OpSyscall {
			syscalls++
			if in.Latency != cfg.BatchLatency {
				t.Errorf("coordinator message blocks %d cycles, want %d", in.Latency, cfg.BatchLatency)
			}
		}
	}
	// The first instruction, the call into the scan loop, precedes any batch.
	want := []uint64{0, 700, 1400, 2100, 2800, 3000}
	if !slices.Equal(counts, want) {
		t.Fatalf("RowsScanned took values %v, want %v", counts, want)
	}
	if syscalls != len(want)-1 {
		t.Errorf("%d coordinator messages for %d batches", syscalls, len(want)-1)
	}
}
