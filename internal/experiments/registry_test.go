package experiments

import (
	"testing"

	"repro/internal/runner"
)

// experiment looks up a registered experiment by id.
func experiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range All {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no experiment %q", id)
	return Experiment{}
}

func TestRegistryUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if e.ID == "" || e.Title == "" || e.Notes == "" || e.sims == nil || e.render == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// The paper's evaluation: figures 2a-2dg, 3a-3dg, 4, 5, 6, 7a, 7b and
	// the two characterization tables must all be present.
	for _, id := range []string{
		"fig2a", "fig2b", "fig2c", "fig2d-g",
		"fig3a", "fig3b", "fig3c", "fig3d-g",
		"fig4", "fig5", "fig6", "fig7a", "fig7b",
		"tbl-miss", "tbl-mig",
	} {
		if !seen[id] {
			t.Errorf("paper experiment %q missing from registry", id)
		}
	}
}

// TestRegistrySimulations checks every experiment's simulation list
// without simulating: within one experiment no two simulations may share
// a spec hash (they would be the same run twice) or a checkpoint file
// name (prefix.<label>.ckpt, so one would overwrite the other's
// captures). It logs how many simulations all experiments list and how
// many of them are distinct across experiments.
func TestRegistrySimulations(t *testing.T) {
	for _, sc := range []struct {
		name string
		sc   Scale
	}{{"quick", QuickScale}, {"default", DefaultScale}} {
		total, distinct := 0, map[string]bool{}
		for _, e := range All {
			hashes, files := map[string]string{}, map[string]string{}
			for _, s := range e.sims() {
				h := runner.SpecHash(s.spec(sc.sc))
				if prev, ok := hashes[h]; ok {
					t.Errorf("%s %s: simulations %q and %q share spec hash %s", sc.name, e.ID, prev, s.label, h)
				}
				hashes[h] = s.label
				f := runner.CheckpointFile("", s.label)
				if prev, ok := files[f]; ok {
					t.Errorf("%s %s: simulations %q and %q share checkpoint name %q", sc.name, e.ID, prev, s.label, f)
				}
				files[f] = s.label
				total++
				distinct[h] = true
			}
		}
		t.Logf("%s scale: %d simulations, %d distinct", sc.name, total, len(distinct))
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{ID: "x", Title: "T", Tables: []string{"table-body\n"}}
	out := r.Render()
	if out == "" || len(out) < 10 {
		t.Error("empty render")
	}
}
