// Chrome trace-event JSON export/import. The file is the JSON-object
// form of the trace-event format (Perfetto-loadable): complete-slice
// ("X") events on one track per CPU (pid 0) and one per directory
// (pid 1), flow events ("s"/"f") linking each miss slice to its home
// directory transaction, instant events ("i") for releases and
// writebacks, and metadata ("M") naming the tracks. One simulated cycle
// is rendered as one microsecond.
//
// The exact aggregates are embedded under the extra top-level key
// "dbsimAggregates" (trace viewers ignore unknown keys). ReadFile reads
// only them, so traceview reconciles exactly even when the raw ring
// wrapped or was sampled.

package tracing

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/db"
	"repro/internal/htm"
	"repro/internal/stats"
)

type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	OtherData       map[string]any  `json:"otherData,omitempty"`
	Aggregates      *AggregatesJSON `json:"dbsimAggregates,omitempty"`
	TraceEvents     []chromeEvent   `json:"traceEvents"`
}

// Perfetto process ids: cpu tracks and directory tracks.
const (
	pidCPU = 0
	pidDir = 1
)

// AggregatesJSON is the serialized form of Analysis, embedded in the
// trace file and recovered by the reader. Slices are sorted for
// deterministic output.
type AggregatesJSON struct {
	StartCycle uint64            `json:"start_cycle"`
	EndCycle   uint64            `json:"end_cycle"`
	Recorded   map[string]uint64 `json:"recorded_events"`
	Categories []string          `json:"categories"` // column legend for by_cat
	Sites      []SiteJSON        `json:"stall_sites"`
	Latency    []LatencyJSON     `json:"miss_latency"`
	Lines      []LineJSON        `json:"line_sharing"`
	HTM        *HTMJSON          `json:"htm_elision,omitempty"`
}

// HTMJSON is the serialized latch-elision lifecycle totals (present only
// when the run elided at least one latch).
type HTMJSON struct {
	Begins       uint64            `json:"begins"`
	Commits      uint64            `json:"commits"`
	Fallbacks    uint64            `json:"fallbacks"`
	ElidedCycles uint64            `json:"elided_cycles"`
	Aborts       map[string]uint64 `json:"aborts"` // cause name -> count
}

// SiteJSON is one stall site; ByCat follows the Categories legend order.
type SiteJSON struct {
	PC    string    `json:"pc"`
	Op    string    `json:"op,omitempty"`
	ByCat []float64 `json:"by_cat"`
}

// LatencyJSON is one service class histogram.
type LatencyJSON struct {
	Class   string   `json:"class"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Bounds  []uint64 `json:"bounds"`
	Buckets []uint64 `json:"buckets"`
}

// LineJSON is one shared line's sharing behaviour.
type LineJSON struct {
	Line              string `json:"line"`
	Region            string `json:"region"`
	Block             int    `json:"block"` // -1 outside the buffer pool
	Tenures           uint32 `json:"tenures"`
	Owning            uint32 `json:"owning_tenures"`
	Misses            uint64 `json:"misses"`
	WriteMisses       uint64 `json:"write_misses"`
	DirtyMisses       uint64 `json:"dirty_misses"`
	DirtyCycles       uint64 `json:"dirty_cycles"`
	ProtocolMigratory uint64 `json:"protocol_migratory"`
	Migratory         bool   `json:"migratory"`
}

// BreakdownMetaKey is the otherData key under which dbsim embeds the
// simulator's own post-warm-up execution-time breakdown, letting
// traceview reconcile the trace-derived profile offline.
const BreakdownMetaKey = "simulatorBreakdown"

// BreakdownToMeta serializes a breakdown for Tracer.SetMeta.
func BreakdownToMeta(b stats.Breakdown) map[string]any {
	out := make(map[string]any, int(stats.NumCategories))
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		out[c.String()] = b[c]
	}
	return out
}

// BreakdownFromMeta recovers a breakdown from a loaded trace's otherData.
func BreakdownFromMeta(v any) (stats.Breakdown, bool) {
	m, ok := v.(map[string]any)
	if !ok {
		return stats.Breakdown{}, false
	}
	var b stats.Breakdown
	found := false
	for name, val := range m {
		f, ok := val.(float64)
		if !ok {
			continue
		}
		if c, ok := stats.ParseCategory(name); ok {
			b[c] = f
			found = true
		}
	}
	return b, found
}

func hexAddr(a uint64) string { return "0x" + strconv.FormatUint(a, 16) }

func parseHex(s string) (uint64, error) {
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	return strconv.ParseUint(s, 16, 64)
}

func marshalAggregates(a *Analysis, resolve func(uint64) string) *AggregatesJSON {
	out := &AggregatesJSON{
		StartCycle: a.StartCycle,
		EndCycle:   a.EndCycle,
		Recorded:   make(map[string]uint64, int(numKinds)),
	}
	for k := Kind(0); k < numKinds; k++ {
		out.Recorded[k.String()] = a.Recorded[k]
	}
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		out.Categories = append(out.Categories, c.String())
	}
	pcs := make([]uint64, 0, len(a.Sites))
	for pc := range a.Sites {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		s := a.Sites[pc]
		sj := SiteJSON{PC: hexAddr(pc), ByCat: append([]float64(nil), s.ByCat[:]...)}
		if resolve != nil {
			sj.Op = resolve(pc)
		}
		out.Sites = append(out.Sites, sj)
	}
	for c := Class(0); c < NumClasses; c++ {
		h := &a.Lat[c]
		if h.Count == 0 {
			continue
		}
		out.Latency = append(out.Latency, LatencyJSON{
			Class: c.String(), Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			Bounds:  append([]uint64(nil), LatencyBounds[:]...),
			Buckets: append([]uint64(nil), h.Buckets[:]...),
		})
	}
	lines := make([]uint64, 0, len(a.Lines))
	for addr := range a.Lines {
		lines = append(lines, addr)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, addr := range lines {
		l := a.Lines[addr]
		lj := LineJSON{
			Line: hexAddr(addr), Region: db.Region(addr), Block: -1,
			Tenures: l.Tenures, Owning: l.OwningTenure,
			Misses: l.Misses, WriteMisses: l.WriteMisses,
			DirtyMisses: l.DirtyMisses, DirtyCycles: l.DirtyCycles,
			ProtocolMigratory: l.ProtocolMigratory, Migratory: l.IsMigratory(),
		}
		if blk, ok := db.BlockOf(addr); ok {
			lj.Block = blk
		}
		out.Lines = append(out.Lines, lj)
	}
	if a.HTM.Begins > 0 {
		hj := &HTMJSON{
			Begins: a.HTM.Begins, Commits: a.HTM.Commits,
			Fallbacks: a.HTM.Fallbacks, ElidedCycles: a.HTM.ElidedCycles,
			Aborts: make(map[string]uint64, int(htm.NumAbortCauses)),
		}
		for c := htm.AbortCause(0); c < htm.NumAbortCauses; c++ {
			if a.HTM.Aborts[c] > 0 {
				hj.Aborts[c.String()] = a.HTM.Aborts[c]
			}
		}
		out.HTM = hj
	}
	return out
}

func unmarshalAggregates(in *AggregatesJSON) (*Analysis, error) {
	a := NewAnalysis()
	a.StartCycle, a.EndCycle = in.StartCycle, in.EndCycle
	for name, n := range in.Recorded {
		for k := Kind(0); k < numKinds; k++ {
			if k.String() == name {
				a.Recorded[k] = n
			}
		}
	}
	for _, sj := range in.Sites {
		pc, err := parseHex(sj.PC)
		if err != nil {
			return nil, fmt.Errorf("tracing: bad site pc %q: %w", sj.PC, err)
		}
		s := a.site(pc)
		for i, v := range sj.ByCat {
			if i >= len(in.Categories) {
				break
			}
			if c, ok := stats.ParseCategory(in.Categories[i]); ok {
				s.ByCat[c] = v
			}
		}
	}
	for _, lj := range in.Latency {
		c, ok := ParseClass(lj.Class)
		if !ok {
			continue
		}
		h := &a.Lat[c]
		h.Count, h.Sum, h.Min, h.Max = lj.Count, lj.Sum, lj.Min, lj.Max
		for i, n := range lj.Buckets {
			if i < NumLatencyBuckets {
				h.Buckets[i] = n
			}
		}
	}
	for _, lj := range in.Lines {
		addr, err := parseHex(lj.Line)
		if err != nil {
			return nil, fmt.Errorf("tracing: bad line addr %q: %w", lj.Line, err)
		}
		a.Lines[addr] = &LineSharing{
			Tenures: lj.Tenures, OwningTenure: lj.Owning,
			Misses: lj.Misses, WriteMisses: lj.WriteMisses,
			DirtyMisses: lj.DirtyMisses, DirtyCycles: lj.DirtyCycles,
			ProtocolMigratory: lj.ProtocolMigratory,
		}
	}
	if in.HTM != nil {
		a.HTM.Begins = in.HTM.Begins
		a.HTM.Commits = in.HTM.Commits
		a.HTM.Fallbacks = in.HTM.Fallbacks
		a.HTM.ElidedCycles = in.HTM.ElidedCycles
		for name, n := range in.HTM.Aborts {
			if c, ok := htm.ParseAbortCause(name); ok {
				a.HTM.Aborts[c] = n
			}
		}
	}
	return a, nil
}

// WriteChrome writes the trace file: metadata naming one track per CPU
// and per directory, all retained events, flow links, and the embedded
// exact aggregates. resolve may be nil.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	kept, sampled, overwritten := t.Stats()
	f := chromeFile{
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"generator":          "dbsim",
			"cycles_per_us":      1,
			"events_kept":        kept,
			"events_sampled_out": sampled,
			"events_overwritten": overwritten,
		},
		Aggregates: marshalAggregates(t.an, t.Resolve),
	}
	for k, v := range t.meta {
		f.OtherData[k] = v
	}

	maxCPU, maxDir := -1, -1
	for i := range events {
		if int(events[i].CPU) > maxCPU {
			maxCPU = int(events[i].CPU)
		}
		if int(events[i].Home) > maxDir {
			maxDir = int(events[i].Home)
		}
	}
	f.TraceEvents = append(f.TraceEvents,
		chromeEvent{Name: "process_name", Ph: "M", Pid: pidCPU, Args: map[string]any{"name": "cpu"}},
	)
	for c := 0; c <= maxCPU; c++ {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pidCPU, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("cpu%d", c)},
		})
	}
	if maxDir >= 0 {
		f.TraceEvents = append(f.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: pidDir, Args: map[string]any{"name": "directory"}},
		)
		for d := 0; d <= maxDir; d++ {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pidDir, Tid: d,
				Args: map[string]any{"name": fmt.Sprintf("dir%d", d)},
			})
		}
	}

	for i := range events {
		f.TraceEvents = append(f.TraceEvents, t.chromeEvents(&events[i])...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// dur clamps slice durations to >= 1 so zero-length spans stay visible.
func dur(start, end uint64) uint64 {
	if end > start {
		return end - start
	}
	return 1
}

func (t *Tracer) chromeEvents(ev *Event) []chromeEvent {
	op := t.Resolve(ev.PC)
	switch ev.Kind {
	case KindStall:
		return []chromeEvent{{
			Name: "stall:" + ev.Cat.String(), Cat: "stall", Ph: "X",
			Ts: ev.Start, Dur: dur(ev.Start, ev.End), Pid: pidCPU, Tid: int(ev.CPU),
			Args: map[string]any{
				"pc": hexAddr(ev.PC), "op": op, "proc": ev.Proc,
				"category": ev.Cat.String(), "slot_cycles": ev.Cycles,
			},
		}}
	case KindMiss:
		args := map[string]any{
			"pc": hexAddr(ev.PC), "op": op, "line": hexAddr(ev.Addr),
			"region": db.Region(ev.Addr), "class": ev.Class.String(),
			"write": ev.Write, "in_cs": ev.InCS,
			"migratory": ev.Migratory, "tlb_miss": ev.TLBMiss,
			"mshr_at": ev.MSHRAt,
		}
		if blk, ok := db.BlockOf(ev.Addr); ok {
			args["block"] = blk
		}
		out := []chromeEvent{{
			Name: "miss:" + ev.Class.String(), Cat: "miss", Ph: "X",
			Ts: ev.Start, Dur: dur(ev.Start, ev.End), Pid: pidCPU, Tid: int(ev.CPU),
			Args: args,
		}}
		if ev.Home >= 0 && ev.DirAt > 0 {
			args["home"] = ev.Home
			args["dir_at"] = ev.DirAt
			args["hops"] = ev.Hops
			args["retries"] = ev.Retries
			args["sharers"] = ev.Sharers
			args["req_queue"] = ev.ReqQueue
			if ev.SrcOwner >= 0 {
				args["src_owner"] = ev.SrcOwner
			}
			kind := "dir:read"
			if ev.Write {
				kind = "dir:write"
			}
			dirEnd := ev.SrcAt
			if dirEnd <= ev.DirAt {
				dirEnd = ev.DirAt + 1
			}
			id := strconv.FormatUint(ev.ID, 10)
			out = append(out,
				// flow start anchored inside the CPU-side miss slice
				chromeEvent{Name: "miss", Cat: "flow", Ph: "s", Ts: ev.Start,
					Pid: pidCPU, Tid: int(ev.CPU), ID: id},
				chromeEvent{Name: kind, Cat: "dir", Ph: "X",
					Ts: ev.DirAt, Dur: dur(ev.DirAt, dirEnd), Pid: pidDir, Tid: int(ev.Home),
					Args: map[string]any{
						"line": hexAddr(ev.Addr), "requester": ev.CPU,
						"class": ev.Class.String(), "sharers": ev.Sharers,
						"retries": ev.Retries,
					}},
				// flow end bound to the enclosing directory slice
				chromeEvent{Name: "miss", Cat: "flow", Ph: "f", BP: "e", Ts: ev.DirAt,
					Pid: pidDir, Tid: int(ev.Home), ID: id},
			)
		}
		return out
	case KindLock:
		return []chromeEvent{{
			Name: "lock", Cat: "sync", Ph: "X",
			Ts: ev.Start, Dur: dur(ev.Start, ev.End), Pid: pidCPU, Tid: int(ev.CPU),
			Args: map[string]any{
				"addr": hexAddr(ev.Addr), "region": db.Region(ev.Addr),
				"pc": hexAddr(ev.PC), "op": op, "proc": ev.Proc,
				"wait": ev.Wait, "handoff_from": ev.Link,
			},
		}}
	case KindUnlock:
		return []chromeEvent{{
			Name: "unlock", Cat: "sync", Ph: "i", S: "t",
			Ts: ev.Start, Pid: pidCPU, Tid: int(ev.CPU),
			Args: map[string]any{
				"addr": hexAddr(ev.Addr), "proc": ev.Proc, "acquire": ev.Link,
			},
		}}
	case KindWriteback:
		// Writebacks carry the physical line address (no reverse
		// translation at eviction time), so no region tag.
		return []chromeEvent{{
			Name: "writeback", Cat: "miss", Ph: "i", S: "t",
			Ts: ev.Start, Pid: pidCPU, Tid: int(ev.CPU),
			Args: map[string]any{"line": hexAddr(ev.Addr)},
		}}
	case KindHTM:
		args := map[string]any{
			"latch": hexAddr(ev.Addr), "region": db.Region(ev.Addr),
			"proc": ev.Proc, "htm_op": ev.HTMOp.String(),
		}
		switch ev.HTMOp {
		case HTMOpCommit:
			// The committed elision is the one HTM span: the critical
			// section that ran latch-free.
			args["pc"] = hexAddr(ev.PC)
			args["op"] = op
			return []chromeEvent{{
				Name: "htm:commit", Cat: "htm", Ph: "X",
				Ts: ev.Start, Dur: dur(ev.Start, ev.End), Pid: pidCPU, Tid: int(ev.CPU),
				Args: args,
			}}
		case HTMOpAbort:
			args["cause"] = ev.Cause.String()
			args["conflict"] = hexAddr(ev.Conflict)
			return []chromeEvent{{
				Name: "htm:abort:" + ev.Cause.String(), Cat: "htm", Ph: "i", S: "t",
				Ts: ev.Start, Pid: pidCPU, Tid: int(ev.CPU), Args: args,
			}}
		case HTMOpFallback:
			args["cause"] = ev.Cause.String()
			args["pc"] = hexAddr(ev.PC)
			args["op"] = op
			return []chromeEvent{{
				Name: "htm:fallback", Cat: "htm", Ph: "i", S: "t",
				Ts: ev.Start, Pid: pidCPU, Tid: int(ev.CPU), Args: args,
			}}
		default: // HTMOpBegin
			args["pc"] = hexAddr(ev.PC)
			args["op"] = op
			return []chromeEvent{{
				Name: "htm:begin", Cat: "htm", Ph: "i", S: "t",
				Ts: ev.Start, Pid: pidCPU, Tid: int(ev.CPU), Args: args,
			}}
		}
	}
	return nil
}

// TraceFile is a loaded trace: the exact aggregate analysis embedded by
// WriteChrome, the run's metadata, and the engine operation at each site.
// The raw events are for a timeline viewer; no report reads them back.
type TraceFile struct {
	Analysis  *Analysis
	OtherData map[string]any
	Ops       map[uint64]string // pc -> engine operation, from the embedded sites
}

// Resolve maps a PC to the engine-operation name recorded at export time
// ("" when unknown) — the offline stand-in for the workload's resolver.
func (tf *TraceFile) Resolve(pc uint64) string { return tf.Ops[pc] }

// ReadFile parses a trace written by WriteChrome. A file without the
// embedded aggregates is an error: every trace WriteChrome writes has them.
func ReadFile(r io.Reader) (*TraceFile, error) {
	var f struct { // chromeFile without its traceEvents, which no report reads
		OtherData  map[string]any  `json:"otherData"`
		Aggregates *AggregatesJSON `json:"dbsimAggregates"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("tracing: parsing trace file: %w", err)
	}
	if f.Aggregates == nil {
		return nil, errors.New("tracing: trace file has no embedded dbsimAggregates")
	}
	an, err := unmarshalAggregates(f.Aggregates)
	if err != nil {
		return nil, err
	}
	tf := &TraceFile{Analysis: an, OtherData: f.OtherData, Ops: make(map[uint64]string)}
	for _, sj := range f.Aggregates.Sites {
		if sj.Op == "" {
			continue
		}
		if pc, err := parseHex(sj.PC); err == nil {
			tf.Ops[pc] = sj.Op
		}
	}
	return tf, nil
}
