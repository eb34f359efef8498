package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
)

// The checkpoint golden tests are the tentpole guarantee of mid-run
// checkpoint/restore: a run interrupted partway and resumed from its
// checkpoint must finish byte-identical to the same run left alone —
// the full Report, the telemetry JSONL series, and the exported trace.
// The matrix covers both workloads under all three latch policies
// (plain locking, paper-style hints, HTM elision), since each policy
// exercises a different slice of the serialized machine state.

const (
	ckTestInterval = 50_000 // cycles between captures; several per run at ffScale
	ckTestSpec     = "ck-golden-test"
)

// ckAt returns a checkpoint factory that captures to path every
// ckTestInterval cycles under spec hash spec.
func ckAt(path, spec string) func(string) *core.CheckpointOptions {
	return func(string) *core.CheckpointOptions {
		return &core.CheckpointOptions{Path: path, Interval: ckTestInterval, SpecHash: spec}
	}
}

// interrupt runs the arm checkpointing to path, cancels it after its
// interruptAfter-th capture, and returns the run's error (nil when it ran
// to completion before that capture). The latest checkpoint stays behind.
func (a arm) interrupt(path string, interruptAfter int) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a.ctx = ctx
	captures := 0
	a.checkpoint = func(label string) *core.CheckpointOptions {
		ck := ckAt(path, ckTestSpec)(label)
		ck.OnCapture = func(uint64, string) {
			captures++
			if captures == interruptAfter {
				cancel()
			}
		}
		return ck
	}
	_, err := a.run()
	return err
}

// ckGolden runs the three arms — uninterrupted baseline, interrupted
// capture, resumed — and asserts the resumed outputs are byte-identical
// to the baseline.
func ckGolden(t *testing.T, oltpWorkload bool, cfg config.Config) {
	t.Helper()
	ckPath := filepath.Join(t.TempDir(), "run.ckpt")
	a := arm{oltp: oltpWorkload, cfg: cfg, traced: true}
	baseline := a.baseline(t)

	// Interrupt after the second capture; the run dies mid-flight with a
	// cancellation error and leaves its latest checkpoint behind.
	if err := a.interrupt(ckPath, 2); err == nil {
		t.Fatal("interrupted arm ran to completion; shrink ckTestInterval")
	}
	st, err := core.LoadCheckpoint(ckPath, ckTestSpec)
	if err != nil {
		t.Fatalf("loading interrupted checkpoint: %v", err)
	}
	if st.Cycle == 0 {
		t.Fatal("interrupted checkpoint captured at cycle 0")
	}

	resume := a
	resume.checkpoint = ckAt(ckPath, ckTestSpec)
	resume.restore = ckPath
	resume.restoreFallback = func(label string, err error) {
		t.Errorf("restore of %s fell back to from-scratch: %v", ckPath, err)
	}
	resumed := resume.mustRun(t)
	assertIdentical(t, baseline, resumed)
	if baseline.totals != resumed.totals {
		t.Errorf("trace aggregate totals differ:\nbaseline %v\nresumed  %v", baseline.totals, resumed.totals)
	}
	if baseline.rep.Instructions == 0 {
		t.Fatal("degenerate run: no instructions retired")
	}
}

func TestCheckpointByteIdentity(t *testing.T) {
	for _, w := range []struct {
		name string
		oltp bool
	}{{"OLTP", true}, {"DSS", false}} {
		for _, pol := range []struct {
			name   string
			policy config.LatchPolicy
		}{
			{"plain", config.LatchPlain},
			{"hints", config.LatchHints},
			{"htm", config.LatchHTM},
		} {
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				ckGolden(t, w.oltp, withLatch(pol.policy))
			})
		}
	}
}

// TestCheckpointRestoreFallback: a missing, truncated, corrupted, or
// spec-mismatched checkpoint must not poison the run — it is rejected
// with a classified error and the run completes from scratch, matching
// the baseline byte for byte.
func TestCheckpointRestoreFallback(t *testing.T) {
	cfg := config.Default()
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")

	baseline := arm{cfg: cfg}.baseline(t)
	if err := (arm{cfg: cfg, traced: true}).interrupt(ckPath, 2); err == nil {
		t.Fatal("interrupted arm ran to completion")
	}
	valid, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		prep    func(t *testing.T, path string)
		check   func(err error) bool
		errName string
	}{
		{
			name:    "missing",
			prep:    func(t *testing.T, path string) {},
			check:   func(err error) bool { return errors.Is(err, os.ErrNotExist) },
			errName: "fs.ErrNotExist",
		},
		{
			name: "truncated",
			prep: func(t *testing.T, path string) {
				if err := os.WriteFile(path, valid[:len(valid)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check:   checkpoint.IsCorrupt,
			errName: "checkpoint.ErrCorrupt",
		},
		{
			name: "corrupted",
			prep: func(t *testing.T, path string) {
				img := append([]byte(nil), valid...)
				img[len(img)-20] ^= 0xff // flip a payload byte under the hash
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check:   checkpoint.IsCorrupt,
			errName: "checkpoint.ErrCorrupt",
		},
		{
			name: "spec-mismatch",
			prep: func(t *testing.T, path string) {
				if err := os.WriteFile(path, valid, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check:   func(err error) bool { return errors.Is(err, core.ErrSpecMismatch) },
			errName: "core.ErrSpecMismatch",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.ckpt")
			tc.prep(t, path)

			spec := ckTestSpec
			if tc.name == "spec-mismatch" {
				spec = "some-other-spec"
			}
			var fallbackErr error
			got := arm{
				cfg:             cfg,
				checkpoint:      ckAt(filepath.Join(t.TempDir(), "new.ckpt"), spec),
				restore:         path,
				restoreFallback: func(label string, err error) { fallbackErr = err },
			}.mustRun(t)
			if fallbackErr == nil {
				t.Fatal("restore did not fall back")
			}
			if !tc.check(fallbackErr) {
				t.Errorf("fallback error is not %s: %v", tc.errName, fallbackErr)
			}
			assertIdentical(t, baseline, got)
		})
	}
}

// TestCheckpointRequiresFactory: Restore without a Checkpoint factory is
// a caller error, not a silent from-scratch run.
func TestCheckpointRequiresFactory(t *testing.T) {
	sc := ffScale()
	sc.Restore = filepath.Join(t.TempDir(), "nope.ckpt")
	if _, err := RunDSS(config.Default(), sc, "ck-misuse"); err == nil {
		t.Fatal("Restore without Checkpoint factory did not error")
	}
}
