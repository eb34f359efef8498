package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

var updateIssueGolden = flag.Bool("update", false, "rewrite testdata/issue_golden.txt from the current simulator")

const issueGoldenFile = "testdata/issue_golden.txt"

// issueGoldenPoint is one machine configuration of the issue-decision
// fingerprint matrix.
type issueGoldenPoint struct {
	oltp    bool
	model   config.ConsistencyModel
	impl    config.ConsistencyImpl
	inOrder bool
	window  int
	latch   config.LatchPolicy
}

func (p issueGoldenPoint) name() string {
	w := "dss"
	if p.oltp {
		w = "oltp"
	}
	mode := "ooo"
	if p.inOrder {
		mode = "inorder"
	}
	return fmt.Sprintf("%s/%v-%v/%s/w%d/%v", w, p.model, p.impl, mode, p.window, p.latch)
}

// issueGoldenMatrix crosses every consistency model and implementation
// with out-of-order and in-order issue at the default window, every model
// with the small and the multi-word window, and every latch policy with
// every model, on both workloads.
func issueGoldenMatrix() []issueGoldenPoint {
	models := []config.ConsistencyModel{config.RC, config.PC, config.SC}
	impls := []config.ConsistencyImpl{config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative}
	var pts []issueGoldenPoint
	for _, w := range []bool{true, false} {
		for _, m := range models {
			for _, im := range impls {
				for _, io := range []bool{false, true} {
					pts = append(pts, issueGoldenPoint{w, m, im, io, 64, config.LatchPlain})
				}
				for _, win := range []int{16, 128} {
					pts = append(pts, issueGoldenPoint{w, m, im, false, win, config.LatchPlain})
				}
			}
			for _, l := range []config.LatchPolicy{config.LatchHints, config.LatchHTM} {
				pts = append(pts, issueGoldenPoint{w, m, config.ImplSpeculative, false, 64, l})
				pts = append(pts, issueGoldenPoint{w, m, config.ImplPlain, true, 64, l})
			}
		}
	}
	return pts
}

// issueGoldenRun simulates a small OLTP or DSS machine at point p and
// returns a hash of its full report.
func issueGoldenRun(t *testing.T, p issueGoldenPoint) string {
	cfg := config.Default()
	cfg.Nodes = 2
	cfg.Consistency = p.model
	cfg.ConsistencyOpts = p.impl
	cfg.InOrder = p.inOrder
	cfg.WindowSize = p.window
	cfg.LatchPolicy = p.latch
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var check func() error
	if p.oltp {
		wcfg := oltp.DefaultConfig(cfg.Nodes)
		wcfg.Processes = 3 * cfg.Nodes
		wcfg.TransactionsPerProcess = 1
		w := oltp.New(wcfg)
		for i := 0; i < wcfg.Processes; i++ {
			sys.AddProcess(i%cfg.Nodes, w.Stream(i))
		}
		check = func() error {
			if err := w.Err(); err != nil {
				return err
			}
			return w.TPCB().CheckConsistency()
		}
	} else {
		wcfg := dss.DefaultConfig(cfg.Nodes)
		wcfg.RowsPerProcess = 400
		w := dss.New(wcfg)
		for i := 0; i < wcfg.Processes; i++ {
			sys.AddProcess(i%cfg.Nodes, w.Stream(i))
		}
		check = func() error { return nil }
	}
	rep, err := sys.Run(core.RunOptions{Label: p.name(), MaxCycles: 50_000_000})
	if err != nil {
		t.Fatalf("%s: %v", p.name(), err)
	}
	if err := check(); err != nil {
		t.Fatalf("%s: workload check: %v", p.name(), err)
	}
	if rep.Instructions == 0 {
		t.Fatalf("%s: degenerate run: no instructions retired", p.name())
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *rep)))
	return hex.EncodeToString(sum[:8])
}

// readGolden parses "name hash" lines.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hash, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[name] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// writeGolden writes "name hash" lines sorted by name under a header.
func writeGolden(t *testing.T, path, header string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(header)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", n, got[n])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIssueGolden pins the issue stage's decisions: every point of the
// matrix must reproduce the report hash recorded in testdata. The issue
// stage's decisions (which entry starts when, and the order of the memory
// accesses it makes) determine every cycle count, stall charge and miss
// count in the report, so any change to them shows up here. Regenerate
// with `go test ./internal/experiments -run TestIssueGolden -update` only
// for a change that is meant to alter simulated timing.
func TestIssueGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("issue-decision fingerprint matrix skipped in -short mode")
	}
	pts := issueGoldenMatrix()
	got := make(map[string]string, len(pts))
	var mu sync.Mutex
	t.Run("matrix", func(t *testing.T) {
		for _, p := range pts {
			p := p
			t.Run(p.name(), func(t *testing.T) {
				t.Parallel()
				h := issueGoldenRun(t, p)
				mu.Lock()
				got[p.name()] = h
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	if *updateIssueGolden {
		writeGolden(t, issueGoldenFile,
			"# Report hashes of the issue-decision fingerprint matrix (TestIssueGolden).\n", got)
		return
	}
	want := readGolden(t, issueGoldenFile)
	if len(want) != len(got) {
		t.Errorf("golden file has %d points, matrix has %d (regenerate with -update)", len(want), len(got))
	}
	for _, p := range pts {
		n := p.name()
		if w, ok := want[n]; !ok {
			t.Errorf("%s: no golden hash", n)
		} else if got[n] != w {
			t.Errorf("%s: report hash %s, golden %s (issue decisions changed)", n, got[n], w)
		}
	}
}
