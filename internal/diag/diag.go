// Package diag renders machine-state snapshots for crash diagnostics.
//
// When a run dies — the forward-progress watchdog trips, the cycle bound
// is exceeded, or an internal invariant panics — the interesting question
// is *why*: which core stopped retiring, what its oldest instruction is
// waiting on, which misses are in flight, who holds the contended lock.
// A Snapshot captures exactly that state (per-CPU pipeline/ROB occupancy,
// MSHR contents, directory summary, lock-table holders and waiters, and
// in-flight mesh traffic) as plain data, and renders it as a compact text
// report. internal/core builds snapshots and attaches them to its error
// types; this package holds the representation so that tools and tests can
// consume snapshots without importing the whole machine.
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// CoreState is one processor's pipeline state. The JSON tags are the
// snapshot's durable wire format: run journals (internal/runner) embed
// snapshots verbatim, so renaming a tag is a journal format change.
type CoreState struct {
	ID        int    `json:"id"`
	ContextID int    `json:"ctx"` // running process, -1 when idle
	Retired   uint64 `json:"retired"`
	ROB       int    `json:"rob"`               // instructions in the window
	FetchQ    int    `json:"fetch_q"`           // instructions in the fetch buffer
	WriteBuf  int    `json:"write_buf"`         // stores in the post-retirement write buffer
	HeadOp    string `json:"head_op,omitempty"` // opcode of the oldest unretired instruction ("" if none)
	HeadPC    uint64 `json:"head_pc,omitempty"`
	HeadAddr  uint64 `json:"head_addr,omitempty"`
	Spinning  bool   `json:"spinning,omitempty"`  // the head is a lock acquire that keeps losing
	SpinAddr  uint64 `json:"spin_addr,omitempty"` // the contended lock's address
}

// MSHRLine is one in-flight miss (the memory system's transient state).
type MSHRLine struct {
	LineAddr uint64 `json:"line"`
	Done     uint64 `json:"done"`               // cycle the fill completes
	AllocAt  uint64 `json:"alloc_at,omitempty"` // cycle the register was taken
	Write    bool   `json:"write,omitempty"`    // exclusive (GETX/upgrade) request
}

// MSHRState is one miss file's occupancy.
type MSHRState struct {
	Level string     `json:"level"` // "L1I", "L1D", "L2"
	InUse int        `json:"in_use"`
	Max   int        `json:"max"`
	Lines []MSHRLine `json:"lines,omitempty"`
}

// NodeState is one node's memory-system state.
type NodeState struct {
	Node  int         `json:"node"`
	MSHRs []MSHRState `json:"mshrs,omitempty"`
}

// DirectoryState summarizes the coherence directory.
type DirectoryState struct {
	Lines     int `json:"lines"`     // lines with directory state
	Owned     int `json:"owned"`     // lines dirty in some cache
	Shared    int `json:"shared"`    // lines cached by >= 2 nodes
	Migratory int `json:"migratory"` // lines classified migratory
}

// LockState is one held simulated lock.
type LockState struct {
	Addr    uint64 `json:"addr"`
	Owner   int    `json:"owner"`             // process id of the holder
	Waiters []int  `json:"waiters,omitempty"` // core ids spinning on it
}

// MeshState summarizes the interconnect.
type MeshState struct {
	Messages    uint64  `json:"messages"`
	AvgLatency  float64 `json:"avg_latency"`
	QueueCycles uint64  `json:"queue_cycles"`
	BusyLinks   int     `json:"busy_links"` // links still occupied at snapshot time
}

// Snapshot is the machine state at one instant.
type Snapshot struct {
	Cycle  uint64         `json:"cycle"`
	Reason string         `json:"reason"` // what prompted the snapshot ("watchdog", "panic", ...)
	Cores  []CoreState    `json:"cores,omitempty"`
	Nodes  []NodeState    `json:"nodes,omitempty"`
	Dir    DirectoryState `json:"dir"`
	Locks  []LockState    `json:"locks,omitempty"`
	Mesh   MeshState      `json:"mesh"`
}

// String renders the snapshot as a multi-line diagnostic report.
func (s *Snapshot) String() string {
	if s == nil {
		return "diag: no snapshot"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== machine snapshot @ cycle %d (%s) ===\n", s.Cycle, s.Reason)
	for _, c := range s.Cores {
		fmt.Fprintf(&b, "cpu%-2d ctx=%-3s retired=%-10d rob=%-3d fq=%-3d wbuf=%-2d",
			c.ID, ctxLabel(c.ContextID), c.Retired, c.ROB, c.FetchQ, c.WriteBuf)
		if c.HeadOp != "" {
			fmt.Fprintf(&b, " head=%s pc=%#x", c.HeadOp, c.HeadPC)
			if c.HeadAddr != 0 {
				fmt.Fprintf(&b, " addr=%#x", c.HeadAddr)
			}
		}
		if c.Spinning {
			fmt.Fprintf(&b, " SPINNING on lock %#x", c.SpinAddr)
		}
		b.WriteByte('\n')
	}
	for _, n := range s.Nodes {
		used := 0
		for _, m := range n.MSHRs {
			used += m.InUse
		}
		if used == 0 {
			continue
		}
		fmt.Fprintf(&b, "node%d in-flight misses:", n.Node)
		for _, m := range n.MSHRs {
			if m.InUse == 0 {
				continue
			}
			fmt.Fprintf(&b, " %s %d/%d", m.Level, m.InUse, m.Max)
			for _, l := range m.Lines {
				kind := "r"
				if l.Write {
					kind = "w"
				}
				fmt.Fprintf(&b, " [%s line %#x done @%d]", kind, l.LineAddr, l.Done)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "directory: %d lines (%d owned dirty, %d shared, %d migratory)\n",
		s.Dir.Lines, s.Dir.Owned, s.Dir.Shared, s.Dir.Migratory)
	if len(s.Locks) > 0 {
		locks := append([]LockState(nil), s.Locks...)
		sort.Slice(locks, func(i, j int) bool { return locks[i].Addr < locks[j].Addr })
		for _, l := range locks {
			fmt.Fprintf(&b, "lock %#x held by process %d", l.Addr, l.Owner)
			if len(l.Waiters) > 0 {
				fmt.Fprintf(&b, ", cpus %v spinning", l.Waiters)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "mesh: %d messages, avg latency %.0f, queueing %d cycles, %d links busy\n",
		s.Mesh.Messages, s.Mesh.AvgLatency, s.Mesh.QueueCycles, s.Mesh.BusyLinks)
	return b.String()
}

func ctxLabel(id int) string {
	if id < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", id)
}

// PanicError is a panic recovered during a simulation run, carrying the
// machine snapshot taken at recovery time.
type PanicError struct {
	Value    any    // the recovered panic value
	Stack    []byte // stack trace captured at recovery
	Snapshot *Snapshot
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("diag: run panicked: %v", e.Value)
}

// Report renders the full diagnostic: panic value, snapshot, stack.
func (e *PanicError) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "panic: %v\n", e.Value)
	b.WriteString(e.Snapshot.String())
	if len(e.Stack) > 0 {
		b.WriteString(string(e.Stack))
	}
	return b.String()
}
