// The three aggregators: per-PC stall attribution, migratory-sharing
// classification of shared lines, and per-miss latency histograms. They
// are fed every event before sampling or ring overwrite, so their totals
// are exact and reconcile with the simulator's own CPI breakdown.

package tracing

import (
	"sort"

	"repro/internal/db"
	"repro/internal/htm"
	"repro/internal/stats"
)

// Site accumulates the execution-time charged to one instruction address,
// split by CPI category (busy slots plus every stall category).
type Site struct {
	ByCat stats.Breakdown
}

// LatencyBounds are the histogram bucket upper bounds (cycles); the last
// bucket is open-ended. Chosen around the simulated service points: L2
// hits ~20, local memory ~100, remote ~150-200, dirty 2-hop ~250-400.
var LatencyBounds = [...]uint64{32, 64, 128, 192, 256, 384, 512, 1024}

// NumLatencyBuckets includes the open-ended overflow bucket.
const NumLatencyBuckets = len(LatencyBounds) + 1

// LatencyHist is a per-service-class miss latency histogram.
type LatencyHist struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [NumLatencyBuckets]uint64
}

func (h *LatencyHist) add(lat uint64) {
	if h.Count == 0 || lat < h.Min {
		h.Min = lat
	}
	if lat > h.Max {
		h.Max = lat
	}
	h.Count++
	h.Sum += lat
	for i, b := range LatencyBounds {
		if lat < b {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[NumLatencyBuckets-1]++
}

// Mean returns the average latency (0 for an empty histogram).
func (h *LatencyHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// LineSharing tracks one cache line's cross-node handoff behaviour. A
// *tenure* is a maximal run of consecutive misses to the line by the same
// node; a tenure in which the node wrote (took ownership) is an *owning*
// tenure. A line is classified migratory when ownership ping-pongs: at
// least two tenures, and owning tenures make up at least half of them —
// the read-modify-write handoff pattern of paper Section 6 (locks,
// sequence counters, hot block headers).
type LineSharing struct {
	Tenures      uint32
	OwningTenure uint32
	Misses       uint64
	WriteMisses  uint64
	DirtyMisses  uint64
	DirtyCycles  uint64
	// ProtocolMigratory counts dirty misses the coherence layer itself
	// flagged as migratory transfers (the optimized 2-hop bound), used to
	// cross-check the event-stream classification against the protocol.
	ProtocolMigratory uint64

	// open-tenure scratch, not exported to reports
	started  bool
	curNode  int16
	curWrite bool
}

func (l *LineSharing) observe(ev *Event) {
	if !l.started || l.curNode != ev.CPU {
		l.closeTenure()
		l.started = true
		l.curNode = ev.CPU
	}
	if ev.Write {
		l.curWrite = true
		l.WriteMisses++
	}
	l.Misses++
	if ev.Class == ClassRemoteDirty {
		l.DirtyMisses++
		if ev.End > ev.Start {
			l.DirtyCycles += ev.End - ev.Start
		}
		if ev.Migratory {
			l.ProtocolMigratory++
		}
	}
}

func (l *LineSharing) closeTenure() {
	if !l.started {
		return
	}
	l.Tenures++
	if l.curWrite {
		l.OwningTenure++
	}
	l.curWrite = false
}

// IsMigratory reports the event-stream classification of the line.
func (l *LineSharing) IsMigratory() bool {
	return l.Tenures >= 2 && 2*l.OwningTenure >= l.Tenures
}

// Analysis is the exact aggregate view of a trace: it is produced live by
// a Tracer, and embedded in and recovered from an exported trace file.
type Analysis struct {
	StartCycle uint64
	EndCycle   uint64
	// Recorded counts every event per kind before sampling/overwrite.
	Recorded [numKinds]uint64

	Sites map[uint64]*Site        // pc -> stall/busy attribution
	Lines map[uint64]*LineSharing // physical line addr -> sharing behaviour
	Lat   [NumClasses]LatencyHist // miss latency by service class
	HTM   HTMTotals               // latch-elision lifecycle totals
}

// HTMTotals aggregates the latch-elision lifecycle over the trace window.
type HTMTotals struct {
	Begins       uint64
	Commits      uint64
	Fallbacks    uint64
	Aborts       [htm.NumAbortCauses]uint64
	ElidedCycles uint64 // cycles inside committed (latch-free) critical sections
}

// TotalAborts sums the abort causes.
func (h *HTMTotals) TotalAborts() uint64 {
	var n uint64
	for _, a := range h.Aborts {
		n += a
	}
	return n
}

func (a *Analysis) addHTM(ev *Event) {
	switch ev.HTMOp {
	case HTMOpBegin:
		a.HTM.Begins++
	case HTMOpCommit:
		a.HTM.Commits++
		if ev.End > ev.Start {
			a.HTM.ElidedCycles += ev.End - ev.Start
		}
	case HTMOpAbort:
		if int(ev.Cause) < len(a.HTM.Aborts) {
			a.HTM.Aborts[ev.Cause]++
		}
	case HTMOpFallback:
		a.HTM.Fallbacks++
	}
}

// NewAnalysis returns an empty analysis.
func NewAnalysis() *Analysis {
	return &Analysis{
		Sites: make(map[uint64]*Site),
		Lines: make(map[uint64]*LineSharing),
	}
}

func (a *Analysis) site(pc uint64) *Site {
	s := a.Sites[pc]
	if s == nil {
		s = &Site{}
		a.Sites[pc] = s
	}
	return s
}

func (a *Analysis) addMiss(ev *Event) {
	if ev.End > ev.Start {
		a.Lat[ev.Class].add(ev.End - ev.Start)
	} else {
		a.Lat[ev.Class].add(0)
	}
	l := a.Lines[ev.Addr]
	if l == nil {
		l = &LineSharing{}
		a.Lines[ev.Addr] = l
	}
	l.observe(ev)
}

func (a *Analysis) closeTenures() {
	for _, l := range a.Lines {
		l.closeTenure()
		l.started = false
	}
}

// Totals sums the per-site attribution into one breakdown; it reconciles
// with the simulator's post-warm-up CPI breakdown (summed over CPUs).
func (a *Analysis) Totals() stats.Breakdown {
	var b stats.Breakdown
	for _, s := range a.Sites {
		b.Add(&s.ByCat)
	}
	return b
}

// ------------------------------------------------------------- reports --

// ProfileRow is one line of the stall-attribution profile.
type ProfileRow struct {
	PC    uint64 // 0 for operation-rollup rows
	Op    string
	ByCat stats.Breakdown
}

// Stall returns the row's non-busy (stall) cycles.
func (r *ProfileRow) Stall() float64 { return r.ByCat.Total() - r.ByCat[stats.Busy] }

// StallProfile returns the top-N sites ranked by stall cycles (busy
// excluded from the rank, included in the row). resolve may be nil.
func (a *Analysis) StallProfile(resolve func(uint64) string, topN int) []ProfileRow {
	rows := make([]ProfileRow, 0, len(a.Sites))
	for pc, s := range a.Sites {
		r := ProfileRow{PC: pc, ByCat: s.ByCat}
		if resolve != nil {
			r.Op = resolve(pc)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		si, sj := rows[i].Stall(), rows[j].Stall()
		if si != sj {
			return si > sj
		}
		return rows[i].PC < rows[j].PC
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// OperationProfile rolls sites up by engine operation name (unresolved
// PCs fold into "?"), ranked by stall cycles.
func (a *Analysis) OperationProfile(resolve func(uint64) string) []ProfileRow {
	byOp := make(map[string]*ProfileRow)
	for pc, s := range a.Sites {
		op := "?"
		if resolve != nil {
			if n := resolve(pc); n != "" {
				op = n
			}
		}
		r := byOp[op]
		if r == nil {
			r = &ProfileRow{Op: op}
			byOp[op] = r
		}
		r.ByCat.Add(&s.ByCat)
	}
	rows := make([]ProfileRow, 0, len(byOp))
	for _, r := range byOp {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		si, sj := rows[i].Stall(), rows[j].Stall()
		if si != sj {
			return si > sj
		}
		return rows[i].Op < rows[j].Op
	})
	return rows
}

// MigratoryRow is one shared line in the migratory-sharing report.
type MigratoryRow struct {
	Line        uint64
	Region      string
	Block       int // buffer-cache block index, -1 outside the buffer pool
	Tenures     uint32
	Owning      uint32
	Misses      uint64
	DirtyMisses uint64
	DirtyCycles uint64
	Migratory   bool
	// ProtocolAgree is the fraction of the line's dirty misses the
	// protocol also flagged migratory.
	ProtocolAgree float64
}

// MigratoryTotals aggregates dirty-miss attribution over one class of
// lines (migratory or non-migratory).
type MigratoryTotals struct {
	Lines       int
	DirtyMisses uint64
	DirtyCycles uint64
}

// MigratorySummary classifies every line with dirty misses and returns
// the migratory vs non-migratory dirty-miss attribution (paper §6) plus
// the top-N individual lines ranked by dirty-miss cycles.
func (a *Analysis) MigratorySummary(topN int) (mig, non MigratoryTotals, rows []MigratoryRow) {
	for addr, l := range a.Lines {
		if l.DirtyMisses == 0 {
			continue
		}
		isMig := l.IsMigratory()
		tot := &non
		if isMig {
			tot = &mig
		}
		tot.Lines++
		tot.DirtyMisses += l.DirtyMisses
		tot.DirtyCycles += l.DirtyCycles
		row := MigratoryRow{
			Line: addr, Region: db.Region(addr), Block: -1,
			Tenures: l.Tenures, Owning: l.OwningTenure,
			Misses: l.Misses, DirtyMisses: l.DirtyMisses,
			DirtyCycles: l.DirtyCycles, Migratory: isMig,
		}
		if blk, ok := db.BlockOf(addr); ok {
			row.Block = blk
		}
		if l.DirtyMisses > 0 {
			row.ProtocolAgree = float64(l.ProtocolMigratory) / float64(l.DirtyMisses)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].DirtyCycles != rows[j].DirtyCycles {
			return rows[i].DirtyCycles > rows[j].DirtyCycles
		}
		return rows[i].Line < rows[j].Line
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return mig, non, rows
}
