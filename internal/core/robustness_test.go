package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/diag"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// lockStream emits an acquire of lockAddr, a little work, and (optionally)
// the release. A holder that ends its stream without releasing models a
// process dying inside a critical section: every other process then spins
// on the lock forever.
func lockStream(lockAddr uint64, release bool) *trace.SliceStream {
	var ins []trace.Instr
	pc := uint64(0x30000)
	emit := func(in trace.Instr) {
		in.PC = pc
		pc += 4
		ins = append(ins, in)
	}
	emit(trace.Instr{Op: trace.OpLockAcquire, Addr: lockAddr})
	emit(trace.Instr{Op: trace.OpLoad, Addr: lockAddr + 64, Dest: 1})
	emit(trace.Instr{Op: trace.OpIntALU, Src1: 1, Dest: 2})
	emit(trace.Instr{Op: trace.OpStore, Addr: lockAddr + 64, Src1: 2})
	if release {
		emit(trace.Instr{Op: trace.OpWriteBar})
		emit(trace.Instr{Op: trace.OpLockRelease, Addr: lockAddr})
	}
	return trace.NewSliceStream(ins)
}

// TestWatchdogTripsOnLivelock: one process acquires a lock and ends its
// stream without releasing; a second spins on the acquire forever. The
// watchdog must convert the livelock into a *ProgressError (with snapshot)
// well before the cycle bound, rather than burning MaxCycles.
func TestWatchdogTripsOnLivelock(t *testing.T) {
	const window = 50_000
	err := runLivelock(t, RunOptions{
		Label:          "livelock",
		MaxCycles:      500_000_000, // far beyond the watchdog window
		WatchdogWindow: window,
	}, 0, false).err
	var pe *ProgressError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProgressError", err)
	}
	if errors.Is(err, ErrMaxCycles) {
		t.Error("watchdog trip must not read as a cycle-limit error")
	}
	if pe.Window != window {
		t.Errorf("window = %d, want %d", pe.Window, window)
	}
	if pe.Cycle-pe.LastProgress < window {
		t.Errorf("tripped after only %d silent cycles", pe.Cycle-pe.LastProgress)
	}
	if pe.Snapshot == nil {
		t.Fatal("no machine snapshot attached")
	}
	// The snapshot must name the lock the machine is stuck on.
	text := pe.Snapshot.String()
	if !strings.Contains(text, "lock") {
		t.Errorf("snapshot does not mention the held lock:\n%s", text)
	}
}

// TestWatchdogDisabled: the same livelock with the watchdog off must run
// all the way to the cycle bound.
func TestWatchdogDisabled(t *testing.T) {
	err := runLivelock(t, RunOptions{
		Label:           "livelock-nowd",
		MaxCycles:       200_000,
		WatchdogWindow:  50_000,
		DisableWatchdog: true,
	}, 0, false).err
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	var ce *CycleLimitError
	if !errors.As(err, &ce) || ce.Snapshot == nil {
		t.Fatalf("cycle-limit error carries no snapshot: %v", err)
	}
}

// panicStream panics when the simulator asks for its nth instruction,
// standing in for an internal invariant violation inside the machine model.
type panicStream struct {
	n     int
	count int
}

func (p *panicStream) Next(in *trace.Instr) bool {
	if p.count >= p.n {
		panic("synthetic model failure")
	}
	p.count++
	*in = trace.Instr{Op: trace.OpIntALU, PC: 0x40000 + uint64(p.count)*4, Dest: 1}
	return true
}

// TestRunRecoversPanic: a panic inside the machine model must surface as a
// *diag.PanicError with the panic value, a stack, and a best-effort
// snapshot — not take the process down.
func TestRunRecoversPanic(t *testing.T) {
	cfg := config.Default()
	cfg.Nodes = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.AddProcess(0, &panicStream{n: 200})
	rep, err := sys.Run(RunOptions{Label: "panic", MaxCycles: 1_000_000})
	if rep != nil {
		t.Error("a recovered panic must not also return a report")
	}
	var pe *diag.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *diag.PanicError", err)
	}
	if pe.Value != "synthetic model failure" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if pe.Snapshot == nil {
		t.Error("no snapshot captured")
	}
	if !strings.Contains(pe.Error(), "synthetic model failure") {
		t.Errorf("Error() does not include the panic value: %s", pe.Error())
	}
}

// TestRunHonorsContext: a canceled context must stop the run promptly with
// a *CanceledError that unwraps to the context's cause.
func TestRunHonorsContext(t *testing.T) {
	cfg := config.Default()
	cfg.Nodes = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.AddProcess(0, synthStream(100_000, 1<<20))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the first poll must notice
	_, err = sys.Run(RunOptions{Label: "canceled", MaxCycles: 500_000_000, Context: ctx})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("CanceledError does not unwrap to context.Canceled")
	}
	if ce.Cycle > 2*ctxCheckEvery {
		t.Errorf("cancellation noticed only at cycle %d", ce.Cycle)
	}
	if ce.Snapshot == nil {
		t.Error("CanceledError carries no machine snapshot")
	}
}

// TestSnapshotRenders: the diagnostic snapshot of a healthy running machine
// renders its major sections.
func TestSnapshotRenders(t *testing.T) {
	cfg := config.Default()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < cfg.Nodes; n++ {
		sys.AddProcess(n, synthStream(500, 1<<20))
	}
	if _, err := sys.Run(RunOptions{Label: "snap", MaxCycles: 50_000_000}); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot("test")
	text := snap.String()
	for _, want := range []string{"machine snapshot", "cycle", "cpu", "directory", "mesh"} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot missing %q section:\n%s", want, text)
		}
	}
	if len(snap.Cores) != cfg.Nodes {
		t.Errorf("snapshot has %d cores, want %d", len(snap.Cores), cfg.Nodes)
	}
	if len(snap.Nodes) != cfg.Nodes {
		t.Errorf("snapshot has %d nodes, want %d", len(snap.Nodes), cfg.Nodes)
	}
}

// livelockRun is one arm of TestErrorExitsMatchWithoutFastForward.
type livelockRun struct {
	rep   *stats.Report
	err   error
	jsonl []byte
}

// runLivelock runs the livelock machine (a holder that ends its stream
// without releasing the lock, a spinner on it) under opt, with
// fast-forward on or off, and telemetry into a JSONL buffer when
// telInterval is non-zero.
func runLivelock(t *testing.T, opt RunOptions, telInterval uint64, disableFF bool) livelockRun {
	t.Helper()
	cfg := config.Default()
	cfg.Nodes = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lockAddr = 0xA00000
	sys.AddProcess(0, lockStream(lockAddr, false)) // holder, never releases
	sys.AddProcess(1, lockStream(lockAddr, true))  // spins forever
	opt.DisableFastForward = disableFF
	var jsonl bytes.Buffer
	if telInterval > 0 {
		opt.Telemetry = telemetry.New(telInterval)
		opt.Telemetry.Attach(telemetry.NewJSONLSink(nopCloser{&jsonl}), nil)
	}
	var r livelockRun
	r.rep, r.err = sys.Run(opt)
	if opt.Telemetry != nil {
		if err := opt.Telemetry.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r.jsonl = jsonl.Bytes()
	return r
}

// TestErrorExitsMatchWithoutFastForward: on a wedged machine every core
// sits in a skip run, so each cycle-timed exit (the watchdog trip, the
// cycle limit, the context poll) and each telemetry sample inside the
// wedged span must still land on the cycle the plain loop reaches it, and
// report the same machine.
func TestErrorExitsMatchWithoutFastForward(t *testing.T) {
	t.Run("watchdog", func(t *testing.T) {
		opt := RunOptions{Label: "wd", MaxCycles: 500_000_000, WatchdogWindow: 50_000}
		var on, off *ProgressError
		if a, b := runLivelock(t, opt, 0, false), runLivelock(t, opt, 0, true); !errors.As(a.err, &on) || !errors.As(b.err, &off) {
			t.Fatalf("errors = %v / %v, want *ProgressError", a.err, b.err)
		}
		if on.Cycle != off.Cycle || on.LastProgress != off.LastProgress || on.Retired != off.Retired || on.Window != off.Window {
			t.Errorf("watchdog trips differ:\nff-on  %+v\nff-off %+v", *on, *off)
		}
		if a, b := on.Snapshot.String(), off.Snapshot.String(); a != b {
			t.Errorf("watchdog snapshots differ:\nff-on\n%s\nff-off\n%s", a, b)
		}
	})

	t.Run("cycle-limit", func(t *testing.T) {
		// The second telemetry sample is due past the limit, so the wedged
		// span has a finite next event to skip towards.
		opt := RunOptions{Label: "limit", MaxCycles: 123_457, DisableWatchdog: true}
		var on, off *CycleLimitError
		if a, b := runLivelock(t, opt, 100_000, false), runLivelock(t, opt, 100_000, true); !errors.As(a.err, &on) || !errors.As(b.err, &off) {
			t.Fatalf("errors = %v / %v, want *CycleLimitError", a.err, b.err)
		}
		if on.Cycles != off.Cycles || on.Retired != off.Retired || on.Cycles != opt.MaxCycles {
			t.Errorf("cycle limits differ: ff-on %d cycles %d retired, ff-off %d cycles %d retired (limit %d)",
				on.Cycles, on.Retired, off.Cycles, off.Retired, opt.MaxCycles)
		}
		if !reflect.DeepEqual(on.Snapshot, off.Snapshot) {
			t.Errorf("cycle-limit snapshots differ:\nff-on\n%s\nff-off\n%s", on.Snapshot, off.Snapshot)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the first poll, at cycle ctxCheckEvery, must notice
		opt := RunOptions{Label: "cancel", MaxCycles: 500_000_000, Context: ctx}
		var on, off *CanceledError
		if a, b := runLivelock(t, opt, 0, false), runLivelock(t, opt, 0, true); !errors.As(a.err, &on) || !errors.As(b.err, &off) {
			t.Fatalf("errors = %v / %v, want *CanceledError", a.err, b.err)
		}
		if on.Cycle != ctxCheckEvery || off.Cycle != ctxCheckEvery {
			t.Errorf("canceled at cycle %d (ff-on) and %d (ff-off), want %d", on.Cycle, off.Cycle, ctxCheckEvery)
		}
	})

	t.Run("telemetry", func(t *testing.T) {
		// Samples every 15,000 cycles fall inside the 50,000-cycle wedged
		// span before the watchdog trips.
		opt := RunOptions{Label: "tel", MaxCycles: 500_000_000, WatchdogWindow: 50_000}
		on, off := runLivelock(t, opt, 15_000, false), runLivelock(t, opt, 15_000, true)
		var pe *ProgressError
		if !errors.As(on.err, &pe) || !errors.As(off.err, &pe) {
			t.Fatalf("errors = %v / %v, want *ProgressError", on.err, off.err)
		}
		if !reflect.DeepEqual(on.rep, off.rep) {
			t.Errorf("reports differ:\nff-on  %+v\nff-off %+v", on.rep, off.rep)
		}
		if n := bytes.Count(on.jsonl, []byte("\n")); n < 3 {
			t.Errorf("%d telemetry samples, want at least 3 inside the wedged span", n)
		}
		if !bytes.Equal(on.jsonl, off.jsonl) {
			t.Errorf("telemetry JSONL differs (%d vs %d bytes)", len(on.jsonl), len(off.jsonl))
		}
	})
}
