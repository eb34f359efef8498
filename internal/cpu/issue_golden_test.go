package cpu

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/trace"
)

var updateIssueGolden = flag.Bool("update", false, "rewrite testdata/issue_golden.txt from the current simulator")

const issueGoldenFile = "testdata/issue_golden.txt"

// issueGoldenRun ticks four cores sharing memory and one lock through
// randomStream and hashes, every cycle, each core's retired count,
// waiting-entry count (which moves exactly when the issue stage starts an
// instruction), window and write-buffer occupancy, and at the end every
// counter the core keeps.
func issueGoldenRun(t *testing.T, cfg config.Config) string {
	ms := memsys.MustNew(cfg)
	locks := newTestLocks()
	var cores []*Core
	for n := 0; n < cfg.Nodes; n++ {
		c := New(cfg, n, ms.Node(n), locks)
		c.SwitchTo(&Context{ID: n, Stream: trace.NewSliceStream(randomStream(uint64(n+200), 1500))})
		cores = append(cores, c)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	done := false
	for cycle := uint64(1); cycle < 5_000_000 && !done; cycle++ {
		done = true
		for _, c := range cores {
			c.Tick(cycle)
			if !c.NeedsSwitch() {
				done = false
			}
			put(c.Retired)
			put(uint64(c.waiting))
			put(uint64(c.robLen()))
			put(uint64(c.wbufLen()))
		}
	}
	if !done {
		t.Fatal("pipelines hung")
	}
	for _, c := range cores {
		fmt.Fprintf(h, "%v %d %d %d %d %d %d %d %d %d %d %d %d %v\n", c.Bk, c.Retired, c.Rollbacks,
			c.LockSpins, c.LockTries, c.LockWaits, c.SpecLoads, c.Violations,
			c.HTMBegins, c.HTMCommits, c.HTMConflictAborts, c.HTMCapacityAborts, c.HTMFallbacks, c.ROBOcc)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestIssueGolden pins the issue stage's decisions on randomized streams:
// every consistency model and implementation, out-of-order issue at
// windows 16, 64 and 128 plus in-order issue, under every latch policy.
// Regenerate with `go test ./internal/cpu -run TestIssueGolden -update`
// only for a change that is meant to alter simulated timing.
func TestIssueGolden(t *testing.T) {
	models := []config.ConsistencyModel{config.RC, config.PC, config.SC}
	impls := []config.ConsistencyImpl{config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative}
	latches := []config.LatchPolicy{config.LatchPlain, config.LatchHints, config.LatchHTM}
	type mode struct {
		name    string
		inOrder bool
		window  int
	}
	modes := []mode{{"w16", false, 16}, {"w64", false, 64}, {"w128", false, 128}, {"inorder", true, 64}}
	got := map[string]string{}
	for _, m := range models {
		for _, im := range impls {
			for _, md := range modes {
				for _, l := range latches {
					cfg := config.Default()
					cfg.Nodes = 4
					cfg.Consistency = m
					cfg.ConsistencyOpts = im
					cfg.InOrder = md.inOrder
					cfg.WindowSize = md.window
					cfg.LatchPolicy = l
					got[fmt.Sprintf("%v-%v/%s/%v", m, im, md.name, l)] = issueGoldenRun(t, cfg)
				}
			}
		}
	}
	if *updateIssueGolden {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# Per-cycle pipeline hashes of randomStream on four cores (TestIssueGolden).\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(issueGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(issueGoldenFile)
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
		name, hash, _ := strings.Cut(line, " ")
		want[name] = hash
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d points, matrix has %d (regenerate with -update)", len(want), len(got))
	}
	for n, h := range got {
		if want[n] != h {
			t.Errorf("%s: hash %s, golden %q (issue decisions changed)", n, h, want[n])
		}
	}
}
