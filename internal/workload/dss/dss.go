// Package dss generates the DSS workload: TPC-D Query 6 executed by
// parallel query server processes (Section 2.1.2 of the paper). Each
// process scans its partition of the lineitem table sequentially,
// evaluating the shipdate/discount/quantity predicate per row and
// accumulating revenue for qualifying rows. The behaviour the paper
// measures — a tiny instruction footprint that fits the L1 I-cache,
// compute-intensive execution with high ILP (IPC ~2.2), a ~1% L1 data miss
// rate with most L1 misses hitting in the L2 (per-process work areas) and
// the scan lines missing to memory, and negligible locking — follows from
// that structure.
package dss

import (
	"repro/internal/db"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config scales the workload.
type Config struct {
	Processes      int // total query servers (paper: 4 per CPU)
	RowsPerProcess int
	RowStride      int    // bytes of projected row piece (default 32)
	WorkAreaBytes  int    // per-process expression/sort work area
	BatchRows      int    // rows between coordinator messages (syscalls)
	BatchLatency   uint32 // cycles blocked per coordinator message
	Seed           uint64
}

// DefaultConfig returns the paper-matched scaling for nodes processors.
func DefaultConfig(nodes int) Config {
	return Config{
		Processes:      4 * nodes,
		RowsPerProcess: 24_000,
		RowStride:      16, // projected row piece: the four scanned columns
		WorkAreaBytes:  256 << 10,
		BatchRows:      8_192,
		BatchLatency:   20_000,
		Seed:           1,
	}
}

// Workload is the shared table and code layout.
type Workload struct {
	cfg Config
	li  *db.LineItem

	cs    *workload.CodeSpace
	rScan *workload.Routine
	rHdr  *workload.Routine
	rAgg  *workload.Routine

	// RowsScanned counts the rows of every batch the query servers have
	// started, summed over processes (telemetry probe; generation is lazy,
	// so this tracks simulation progress to within one batch per process).
	RowsScanned uint64

	// procs tracks per-process generation state for checkpointing (see
	// snapshot.go), indexed by process number.
	procs []*procState
}

// New builds the workload.
func New(cfg Config) *Workload {
	if cfg.Processes <= 0 {
		panic("dss: need at least one process")
	}
	if cfg.RowStride == 0 {
		cfg.RowStride = 16
	}
	if cfg.WorkAreaBytes == 0 {
		cfg.WorkAreaBytes = 512 << 10
	}
	w := &Workload{
		cfg: cfg,
		li:  db.NewLineItem(cfg.RowsPerProcess, cfg.RowStride),
		cs:  workload.NewCodeSpace(db.CodeBase + 0x0400_0000),
	}
	// The whole query plan is a few KB of code: it fits the L1I.
	w.rScan = w.cs.NewRoutine("scanloop", 3072)
	w.rHdr = w.cs.NewRoutine("blockhdr", 1024)
	w.rAgg = w.cs.NewRoutine("aggregate", 1024)
	return w
}

// LineItem exposes the table for verification.
func (w *Workload) LineItem() *db.LineItem { return w.li }

// Resolve maps a PC to the query-plan routine containing it (for profilers).
func (w *Workload) Resolve(pc uint64) (string, bool) { return w.cs.Resolve(pc) }

// ExpectedRevenue returns the Query 6 aggregate for process proc's scan.
func (w *Workload) ExpectedRevenue(proc int) int64 {
	return w.li.PartitionRevenue(proc, w.cfg.RowsPerProcess)
}

// ApproxInstrPerProcess estimates the dynamic instruction count.
func (w *Workload) ApproxInstrPerProcess() uint64 {
	return uint64(w.cfg.RowsPerProcess) * 70
}

type procState struct {
	w        *Workload
	proc     int
	row      int    // next row to enqueue
	batchEnd int    // end of the current batch's rows
	accAddr  uint64 // private accumulator (hot)
	exprBase uint64 // interpreted expression tree (hot private state)
	waCur    uint64 // work-area cursor
	revenue  int64
	gen      *workload.Gen
}

// Stream returns the instruction stream of query server proc.
func (w *Workload) Stream(proc int) trace.Stream {
	p := &procState{
		w:        w,
		proc:     proc,
		accAddr:  db.PrivateBase(proc) + 512,
		exprBase: db.PrivateBase(proc) + 4096,
	}
	e := workload.NewEmitter(w.cfg.Seed*7_368_787 + uint64(proc))
	// DSS branch behaviour is dominated by explicit predicate branches and
	// loop-closing branches; background seasoning is sparse and, being
	// loop code, predictable.
	e.BranchEvery = 14
	e.PredictableSeasoning = true
	e.Call(w.rScan)
	p.gen = workload.NewGen(e, p.refill)
	w.register(p)
	return p.gen
}

// Revenue returns the revenue accumulated by the generated stream so far
// (for verification against ExpectedRevenue).
func (p *procState) Revenue() int64 { return p.revenue }

// stepRows is the number of rows one generation step emits. A step is
// expanded into the emitter's buffer all at once, so it bounds the
// generator's footprint: four rows plus a block header buffer at most a
// few hundred instructions.
const stepRows = 4

// refill enqueues the next step of the scan, a few rows of the current
// batch, and after the batch's last rows the coordinator message that
// ends it. Starting a batch counts all of its rows into RowsScanned.
func (p *procState) refill(g *workload.Gen) bool {
	w := p.w
	if p.row == p.batchEnd {
		if p.row >= w.cfg.RowsPerProcess {
			return false
		}
		p.batchEnd = min(p.row+w.cfg.BatchRows, w.cfg.RowsPerProcess)
		w.RowsScanned += uint64(p.batchEnd - p.row)
	}
	s, c := p.row, min(p.row+stepRows, p.batchEnd)
	p.row = c
	g.Enqueue(func(e *workload.Emitter) { p.scanRows(e, s, c) })
	if c == p.batchEnd {
		// Report the batch to the query coordinator: a brief blocking
		// message that lets the other servers on the CPU run.
		g.Enqueue(func(e *workload.Emitter) {
			e.ALU(8, false)
			e.Syscall(w.cfg.BatchLatency)
		})
	}
	return true
}

// scanRows emits the scan loop over [start, end).
func (p *procState) scanRows(e *workload.Emitter, start, end int) {
	w := p.w
	li := w.li
	rowsPerBlock := db.BlockBytes / w.cfg.RowStride
	for i := start; i < end; i++ {
		// Every iteration restarts at the routine head, so the row loop
		// executes at fixed PCs and branch-predictor/BTB sites are stable
		// across rows (and chunks), as in real loop code.
		e.LoopBack()
		if i%rowsPerBlock == 0 {
			p.blockHeader(e, i)
		}
		rowAddr := li.RowAddr(p.proc, i)

		// Row locate plus interpreted predicate evaluation: the
		// expression-tree walk over hot private state that dominates
		// Oracle's row-at-a-time pathlength and keeps the data-reference
		// stream hit-heavy (the paper: DSS's main footprint fits the L1).
		e.ALU(4, false)
		for k := 0; k < 12; k++ {
			e.Load(p.exprBase+uint64(k*96), false)
			e.ALU(4, false)
		}

		// Work-area stores per row: evaluator scratch written through a
		// region that exceeds the L1 but fits the L2. Under the relaxed
		// model these write misses overlap behind the store buffer — the
		// write-driven MSHR occupancy of Figures 3(d)-(g).
		waBase := db.PrivateBase(p.proc) + 2<<20
		for k := 0; k < 2; k++ {
			p.waCur += 20
			if p.waCur >= uint64(w.cfg.WorkAreaBytes) {
				p.waCur = 0
			}
			e.Store(waBase + p.waCur)
			e.ALU(2, false)
		}

		// Column fetches: independent loads from the projected row piece.
		e.Load(rowAddr, false) // l_shipdate
		e.ALU(2, true)         // date comparison
		okDate := li.ShipYearOK(p.proc, i)
		e.CondBranch(!okDate) // fail -> skip the rest (mostly taken)
		if !okDate {
			e.ALU(3, false)
			e.Load(p.exprBase+640, false) // reset evaluator state
			continue
		}
		e.Load(rowAddr+4, false) // l_discount
		e.ALU(2, true)
		e.Load(p.exprBase+224, false)
		d := li.DiscountBP(p.proc, i)
		okDisc := d >= 500 && d <= 700
		e.CondBranch(!okDisc)
		if !okDisc {
			e.ALU(3, false)
			continue
		}
		e.Load(rowAddr+8, false) // l_quantity
		e.ALU(2, true)
		okQty := li.Quantity(p.proc, i) < 24
		e.CondBranch(!okQty)
		if !okQty {
			e.ALU(3, false)
			continue
		}
		// Qualifying row: price load, multiply, accumulate.
		e.Load(rowAddr+12, false) // l_extendedprice
		p.aggregate(e)
		p.revenue += li.Revenue(p.proc, i)
	}
}

// blockHeader reads the block header and touches the per-process work area
// (expression state), whose footprint exceeds the L1 but fits the L2.
func (p *procState) blockHeader(e *workload.Emitter, row int) {
	w := p.w
	e.Call(w.rHdr)
	hdr := w.li.BlockOf(p.proc, row)
	e.Load(hdr, false)
	e.Load(hdr+8, true) // row directory (dependent)
	e.ALU(8, false)
	e.Store(db.PrivateBase(p.proc) + 1024) // scan cursor bookkeeping
	e.ALU(4, false)
	e.Ret()
}

// aggregate multiplies price by discount and adds into the accumulator.
func (p *procState) aggregate(e *workload.Emitter) {
	w := p.w
	e.Call(w.rAgg)
	e.ALU(5, true) // NUMBER arithmetic (integer units; FP unused, as in Q6)
	e.Load(p.accAddr, false)
	e.ALU(2, true)
	e.Store(p.accAddr)
	e.ALU(2, false)
	e.Ret()
}
