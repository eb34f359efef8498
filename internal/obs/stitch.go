package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// ReadSpans loads one span log, tolerating a torn final line (a process
// killed mid-write, exactly the chaos scenario the stitcher exists
// for). Mid-file garbage and records without trace/span ids are skipped
// with a warning through warn, which may be nil. Unlike ScanJSONL, a
// missing log is an error: the stitcher was asked to read it.
func ReadSpans(path string, warn func(format string, args ...any)) ([]Span, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("obs: open span log: %w", err)
	}
	var spans []Span
	err := ScanJSONL(path, warn, func(line []byte) bool {
		var sp Span
		if json.Unmarshal(line, &sp) != nil || sp.Trace == "" || sp.ID == "" {
			return false
		}
		spans = append(spans, sp)
		return true
	})
	if err != nil {
		return spans, fmt.Errorf("obs: scan %s: %w", path, err)
	}
	return spans, nil
}

// ReadSpanFiles concatenates several processes' span logs.
func ReadSpanFiles(warn func(format string, args ...any), paths ...string) ([]Span, error) {
	var all []Span
	for _, p := range paths {
		spans, err := ReadSpans(p, warn)
		if err != nil {
			return nil, err
		}
		all = append(all, spans...)
	}
	return all, nil
}

// Node is a span with its resolved children, ordered by start time.
type Node struct {
	Span
	Children []*Node
}

// Tree is the stitched forest for one or more traces. Orphans are
// spans whose parent ID was never recorded by any process — expected
// when a log is missing from the stitch set, a bug otherwise.
type Tree struct {
	Roots   []*Node
	Orphans []*Node
	Traces  []string // distinct trace IDs, sorted
	Spans   int      // spans after last-record-wins dedup
}

// Stitch merges spans from any number of process logs into one forest.
// Duplicate (trace, span) pairs collapse last-record-wins — the rule
// that lets long-running spans be logged at start and again at
// completion — where "last" means the later end timestamp (falling back
// to input order), so stitching files in any order is deterministic.
func Stitch(spans []Span) *Tree {
	type key struct{ trace, id string }
	byID := make(map[key]*Node, len(spans))
	order := make([]key, 0, len(spans))
	for _, sp := range spans {
		k := key{sp.Trace, sp.ID}
		if prev, ok := byID[k]; ok {
			if sp.End >= prev.End {
				prev.Span = sp
			}
			continue
		}
		byID[k] = &Node{Span: sp}
		order = append(order, k)
	}
	t := &Tree{Spans: len(byID)}
	traces := map[string]bool{}
	for _, k := range order {
		n := byID[k]
		traces[n.Trace] = true
		if n.Parent == "" {
			t.Roots = append(t.Roots, n)
			continue
		}
		if p, ok := byID[key{n.Trace, n.Parent}]; ok {
			p.Children = append(p.Children, n)
		} else {
			t.Orphans = append(t.Orphans, n)
		}
	}
	for _, n := range byID {
		sort.SliceStable(n.Children, func(i, j int) bool {
			if n.Children[i].Start != n.Children[j].Start {
				return n.Children[i].Start < n.Children[j].Start
			}
			return n.Children[i].ID < n.Children[j].ID
		})
	}
	byStart := func(ns []*Node) {
		sort.SliceStable(ns, func(i, j int) bool {
			if ns[i].Start != ns[j].Start {
				return ns[i].Start < ns[j].Start
			}
			return ns[i].ID < ns[j].ID
		})
	}
	byStart(t.Roots)
	byStart(t.Orphans)
	for tr := range traces {
		t.Traces = append(t.Traces, tr)
	}
	sort.Strings(t.Traces)
	return t
}

// AllSpans returns every deduped span in the tree (roots, descendants,
// and orphans with their subtrees), in deterministic pre-order.
func (t *Tree) AllSpans() []Span {
	var out []Span
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n.Span)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	for _, o := range t.Orphans {
		walk(o)
	}
	return out
}

// Format renders the forest as an indented text timeline, one line per
// span: name, process, duration, and the stable attrs.
func (t *Tree) Format(w io.Writer) {
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		d := time.Duration(n.End - n.Start)
		attrs := ""
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var sb strings.Builder
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%s", k, n.Attrs[k])
			}
			attrs = sb.String()
		}
		fmt.Fprintf(w, "%s%-16s %-12s %12s%s\n", strings.Repeat("  ", depth), n.Name, n.Process, d, attrs)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	for _, o := range t.Orphans {
		fmt.Fprintf(w, "ORPHAN (parent %s not recorded):\n", o.Parent)
		walk(o, 1)
	}
}
