// Package config defines the simulated machine parameters.
//
// The defaults reproduce Figure 1 of Ranganathan et al., "Performance of
// Database Workloads on Shared-Memory Systems with Out-of-Order Processors"
// (ASPLOS 1998): a 4-node CC-NUMA machine built from 1 GHz 4-way-issue
// out-of-order processors with 64-entry instruction windows, 128KB 2-way L1
// caches, an 8MB 4-way L2, 8 MSHRs per cache, fully associative 128-entry
// TLBs, and contentionless latencies of roughly 100 cycles for local reads,
// 160-180 for remote reads, and 280-310 for cache-to-cache transfers.
package config

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coherence"
)

// ConsistencyModel selects the hardware memory consistency model.
type ConsistencyModel int

const (
	// RC is release consistency (the paper's shorthand for the Alpha
	// memory model with MB/WMB fences at synchronization points).
	RC ConsistencyModel = iota
	// PC is processor consistency: stores retire in order through a FIFO
	// store buffer, loads issue in program order but may bypass stores.
	PC
	// SC is sequential consistency: memory operations are issued one at a
	// time in program order in the straightforward implementation.
	SC
)

func (m ConsistencyModel) String() string {
	switch m {
	case RC:
		return "RC"
	case PC:
		return "PC"
	case SC:
		return "SC"
	}
	return fmt.Sprintf("ConsistencyModel(%d)", int(m))
}

// ConsistencyImpl selects the implementation aggressiveness for the chosen
// consistency model (Section 3.4 of the paper).
type ConsistencyImpl int

const (
	// ImplPlain is the straightforward implementation.
	ImplPlain ConsistencyImpl = iota
	// ImplPrefetch adds hardware prefetching from the instruction window:
	// non-binding prefetches are issued for memory operations whose
	// addresses are known but which are blocked by consistency constraints.
	ImplPrefetch
	// ImplSpeculative additionally allows speculative load execution with
	// rollback on detected ordering violations.
	ImplSpeculative
)

func (i ConsistencyImpl) String() string {
	switch i {
	case ImplPlain:
		return "plain"
	case ImplPrefetch:
		return "+pf"
	case ImplSpeculative:
		return "+pf+spec"
	}
	return fmt.Sprintf("ConsistencyImpl(%d)", int(i))
}

// LatchPolicy selects how the db engine's latch (lock) instructions
// execute — the pluggable concurrency-control entry point of the lock
// path. The zero value is the plain test-and-set latch the paper models,
// so existing configurations are unchanged.
type LatchPolicy int

const (
	// LatchPlain spins on the lock table and performs the latch
	// read-modify-write on acquire (the baseline migratory latch line).
	LatchPlain LatchPolicy = iota
	// LatchHints wraps the plain latch with the paper's software hints
	// (Section 4.2): a non-binding exclusive prefetch of the latch line
	// while spinning, and a flush pushing it home at release.
	LatchHints
	// LatchHTM elides the latch with a best-effort hardware transaction
	// (internal/htm): the critical section runs speculatively, conflicts
	// and capacity overflows abort, and a bounded retry policy falls back
	// to the real latch so forward progress is never speculative.
	LatchHTM
)

func (p LatchPolicy) String() string {
	switch p {
	case LatchPlain:
		return "plain"
	case LatchHints:
		return "hints"
	case LatchHTM:
		return "htm"
	}
	return fmt.Sprintf("LatchPolicy(%d)", int(p))
}

// ParseLatchPolicy inverts String.
func ParseLatchPolicy(s string) (LatchPolicy, bool) {
	for _, p := range []LatchPolicy{LatchPlain, LatchHints, LatchHTM} {
		if p.String() == s {
			return p, true
		}
	}
	return LatchPlain, false
}

// HTMConfig bounds the best-effort hardware-transaction model used by
// LatchHTM. Zero set bounds are derived from the cache geometry at system
// construction (see Config.HTMReadSetLines/HTMWriteSetLines).
type HTMConfig struct {
	// ReadSetLines / WriteSetLines bound the transactional read and write
	// sets in cache lines. 0 = derive from the cache geometry: the read
	// set tracks up to the L1D capacity, the write set a quarter of it
	// (the POWER-style asymmetry: stores need speculative versioning
	// space, loads only tracking).
	ReadSetLines  int
	WriteSetLines int
	// MaxRetries is the number of speculative re-execution attempts after
	// an abort before the fallback path takes the real latch.
	MaxRetries int
	// BackoffCycles is the linear backoff unit between retries: attempt k
	// waits k*BackoffCycles before re-speculating.
	BackoffCycles int
}

// Validate reports the first HTM parameter inconsistency found.
func (h HTMConfig) Validate() error {
	if h.ReadSetLines < 0 || h.WriteSetLines < 0 {
		return fmt.Errorf("config: htm: set bounds must be non-negative")
	}
	if h.MaxRetries < 0 {
		return fmt.Errorf("config: htm: MaxRetries must be non-negative")
	}
	if h.BackoffCycles < 0 {
		return fmt.Errorf("config: htm: BackoffCycles must be non-negative")
	}
	return nil
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	Assoc     int // ways per set
	LineBytes int // line size
	HitCycles int // access latency on a hit
	Ports     int // requests accepted per cycle
	MSHRs     int // outstanding misses to distinct lines
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.Assoc * c.LineBytes)
}

// Validate reports a descriptive error when the geometry is inconsistent.
func (c CacheConfig) Validate(name string) error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("config: %s: size/assoc/line must be positive", name)
	}
	if c.Assoc > cache.MaxAssoc {
		return fmt.Errorf("config: %s: associativity %d exceeds the maximum %d a cache line's LRU rank field holds",
			name, c.Assoc, cache.MaxAssoc)
	}
	if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
		return fmt.Errorf("config: %s: size %d not divisible by assoc*line %d",
			name, c.SizeBytes, c.Assoc*c.LineBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("config: %s: line size %d not a power of two", name, c.LineBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("config: %s: set count %d not a power of two", name, s)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("config: %s: need at least one MSHR", name)
	}
	if c.Ports <= 0 {
		return fmt.Errorf("config: %s: need at least one port", name)
	}
	return nil
}

// FaultConfig configures the deterministic fault injector (internal/fault).
// The zero value injects nothing. All faults are timing-only: they delay
// messages and retry transactions but never change protocol or workload
// state, so a run with faults enabled retires exactly the instructions of a
// fault-free run.
type FaultConfig struct {
	Enabled bool
	// Seed makes the injected fault sequence reproducible. Two runs with
	// the same seed and configuration inject identical faults.
	Seed uint64

	// MeshDelayProb delays each mesh message with this probability by a
	// uniform 1..MeshDelayMax extra cycles (link jitter, router faults).
	MeshDelayProb float64
	MeshDelayMax  int

	// NACKProb makes the home directory NACK an incoming request with this
	// probability (resource conflict, buffer full). The requester backs off
	// NACKBackoff*(attempt+1) cycles and retries; after NACKMaxRetries
	// consecutive NACKs the request is serviced unconditionally, bounding
	// the retry storm.
	NACKProb       float64
	NACKMaxRetries int
	NACKBackoff    int

	// MemStallProb stalls each memory-bank access with this probability for
	// MemStallCycles extra cycles (transient DRAM contention/refresh).
	MemStallProb   float64
	MemStallCycles int
}

// FaultProfile is the enabled fault profile with the given seed and
// mesh-delay, NACK and memory-stall probabilities, and fixed magnitudes
// (delays up to 20 cycles, 4 NACK retries backing off 50 cycles, 100-cycle
// memory stalls). The dbsim and sweep -fault-* flags build it.
func FaultProfile(seed uint64, meshProb, nackProb, stallProb float64) FaultConfig {
	return FaultConfig{
		Enabled:        true,
		Seed:           seed,
		MeshDelayProb:  meshProb,
		MeshDelayMax:   20,
		NACKProb:       nackProb,
		NACKMaxRetries: 4,
		NACKBackoff:    50,
		MemStallProb:   stallProb,
		MemStallCycles: 100,
	}
}

// Validate reports the first fault-injection inconsistency found.
func (f FaultConfig) Validate() error {
	if !f.Enabled {
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"MeshDelayProb", f.MeshDelayProb},
		{"NACKProb", f.NACKProb},
		{"MemStallProb", f.MemStallProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("config: faults: %s %v outside [0, 1]", p.name, p.v)
		}
	}
	if f.MeshDelayProb > 0 && f.MeshDelayMax <= 0 {
		return fmt.Errorf("config: faults: MeshDelayMax must be positive when MeshDelayProb > 0")
	}
	if f.NACKProb > 0 && f.NACKMaxRetries <= 0 {
		return fmt.Errorf("config: faults: NACKMaxRetries must be positive when NACKProb > 0")
	}
	if f.NACKBackoff < 0 || f.MemStallCycles < 0 {
		return fmt.Errorf("config: faults: backoff/stall cycles must be non-negative")
	}
	if f.MemStallProb > 0 && f.MemStallCycles <= 0 {
		return fmt.Errorf("config: faults: MemStallCycles must be positive when MemStallProb > 0")
	}
	return nil
}

// Config holds every machine parameter. The zero value is not usable; start
// from Default() and override fields.
type Config struct {
	// --- system ---
	Nodes int // processors (one per node)

	// --- processor core ---
	InOrder            bool // in-order issue instead of out-of-order
	IssueWidth         int  // fetch/dispatch/issue/retire width
	WindowSize         int  // instruction window (reorder buffer) entries
	IntALUs            int  // integer functional units
	FPUs               int  // floating-point functional units
	AddrGenUnits       int  // address-generation units
	IntLatency         int  // integer op latency (cycles)
	FPLatency          int  // floating-point op latency (cycles)
	MemQueueSize       int  // load/store queue entries
	WriteBufEntries    int  // post-retirement store/write buffer entries
	MaxSpeculatedBr    int  // simultaneously speculated branches
	BranchRestart      int  // pipeline restart cycles after mispredict/violation
	PerfectBPred       bool // Figure 4: perfect branch prediction
	InfiniteFUs        bool // Figure 4: infinite functional units
	PerfectICache      bool // Figure 4 / 7a: every instruction fetch hits
	PerfectITLB        bool // Figure 7a: no iTLB misses
	PerfectDTLB        bool // Figure 4 (rightmost bar)
	CtxSwitchCycles    int  // OS context-switch cost
	FetchBufferEntries int  // decoupled fetch buffer capacity (instructions)

	// --- branch predictor (PA(4K,12,1)/g(12,12) hybrid, Figure 1) ---
	BPredPAEntries   int // per-address history table entries
	BPredHistoryBits int // history register width
	BTBEntries       int
	BTBAssoc         int
	RASEntries       int

	// --- memory consistency ---
	Consistency     ConsistencyModel
	ConsistencyOpts ConsistencyImpl

	// --- latch execution policy ---

	// LatchPolicy selects the lock-path strategy: plain latch, the
	// paper's prefetch+flush hints, or HTM elision. The zero value
	// (LatchPlain) reproduces the baseline exactly.
	LatchPolicy LatchPolicy
	// HTM bounds the transactional model when LatchPolicy is LatchHTM.
	HTM HTMConfig

	// --- caches ---
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	// Instruction stream buffer between L1I and L2 (Section 4.1).
	// 0 disables it.
	StreamBufEntries int

	// BTBPrefetch enables the Section 4.1 alternative the paper evaluated
	// in a preliminary study: prefetching the instruction lines of
	// predicted branch targets through the BTB. The paper found the
	// benefits limited by path-prediction accuracy; ext-btbpf checks.
	BTBPrefetch bool

	// --- TLBs / VM ---
	PageBytes   int
	ITLBEntries int
	DTLBEntries int
	TLBMissCost int // software miss-handler cycles

	// --- memory & interconnect (contentionless latencies compose to the
	// Figure 1 targets: local ~100, remote ~160-180, dirty ~280-310) ---
	MemoryCycles       int  // DRAM access at the home node
	BusCycles          int  // split-transaction bus traversal within a node
	DirCycles          int  // directory controller occupancy/lookup
	HopCycles          int  // per-hop mesh router latency
	FlitCycles         int  // per-flit serialization per link
	DataFlits          int  // flits in a data (line) message
	CtrlFlits          int  // flits in a control message
	MemBanks           int  // interleaved memory banks per node (contention)
	InterventionCycles int  // extra owner-side cost of a cache-to-cache forward
	MigratoryBound     bool // Figure 7b bound: migratory reads serviced 40% faster
	FlushKeepsClean    bool // flush keeps a clean copy in the cache (paper's choice)
	// MigratoryProtocol enables the adaptive migratory coherence protocol
	// (Cox & Fowler / Stenstrom et al.): reads of migratory lines receive
	// ownership with the data. The paper's footnote 2 argues this cannot
	// help under relaxed consistency; the ext-migproto ablation checks it.
	MigratoryProtocol bool

	// --- telemetry ---

	// TelemetryInterval is the sampling period, in simulated cycles, for
	// the interval telemetry pipeline (internal/telemetry) when a run has
	// one attached and the pipeline does not set its own interval. 0
	// falls back to telemetry.DefaultInterval (100k cycles). Sampling is
	// a pure observer: it never changes simulated timing.
	TelemetryInterval uint64

	// --- robustness / debugging ---

	// DebugChecks enables the coherence invariant checker (single dirty
	// copy, sharer-list consistency after every directory transition) and
	// the processor's load/store order checks under SC/PC. Violations
	// panic; core.System.Run recovers them into diagnostic errors.
	DebugChecks bool

	// Faults configures the deterministic fault injector (internal/fault).
	Faults FaultConfig
}

// Default returns the base system of Figure 1.
func Default() Config {
	return Config{
		Nodes: 4,

		InOrder:            false,
		IssueWidth:         4,
		WindowSize:         64,
		IntALUs:            2,
		FPUs:               2,
		AddrGenUnits:       2,
		IntLatency:         1,
		FPLatency:          4,
		MemQueueSize:       32,
		WriteBufEntries:    8,
		MaxSpeculatedBr:    8,
		BranchRestart:      4,
		CtxSwitchCycles:    2000,
		FetchBufferEntries: 32,

		BPredPAEntries:   4096,
		BPredHistoryBits: 12,
		BTBEntries:       512,
		BTBAssoc:         4,
		RASEntries:       32,

		Consistency:     RC,
		ConsistencyOpts: ImplPlain,

		LatchPolicy: LatchPlain,
		HTM:         HTMConfig{MaxRetries: 4, BackoffCycles: 32},

		L1I: CacheConfig{SizeBytes: 128 << 10, Assoc: 2, LineBytes: 64, HitCycles: 1, Ports: 1, MSHRs: 8},
		L1D: CacheConfig{SizeBytes: 128 << 10, Assoc: 2, LineBytes: 64, HitCycles: 1, Ports: 2, MSHRs: 8},
		L2:  CacheConfig{SizeBytes: 8 << 20, Assoc: 4, LineBytes: 64, HitCycles: 20, Ports: 1, MSHRs: 8},

		StreamBufEntries: 0,

		PageBytes:   8 << 10,
		ITLBEntries: 128,
		DTLBEntries: 128,
		TLBMissCost: 30,

		// These compose to the Figure 1 contentionless latencies:
		// local read  = L1(1) + L2 port(1) + L2(20) + bus(10) + dir(15)
		//             + mem(45) + bus(10)                      ~= 102
		// remote read = local + ctrl msg(20+2*3) + data msg(20+8*3) ~= 172
		// dirty read  = bus + ctrl + dir + fwd ctrl + intervention
		//             + owner L2(20) + data + bus               ~= 291
		MemoryCycles:       45,
		BusCycles:          10,
		DirCycles:          15,
		HopCycles:          20,
		FlitCycles:         3,
		DataFlits:          8,
		CtrlFlits:          2,
		MemBanks:           4,
		InterventionCycles: 140,
		FlushKeepsClean:    true,

		TelemetryInterval: 100_000,
	}
}

// Validate reports the first configuration inconsistency found.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("config: need at least one node, got %d", c.Nodes)
	}
	if c.Nodes > coherence.MaxNodes {
		return fmt.Errorf("config: %d nodes exceed the coherence directory's limit of %d (a 64-bit sharer mask)", c.Nodes, coherence.MaxNodes)
	}
	if c.IssueWidth <= 0 {
		return fmt.Errorf("config: issue width must be positive, got %d", c.IssueWidth)
	}
	if c.WindowSize < c.IssueWidth {
		return fmt.Errorf("config: window size %d smaller than issue width %d", c.WindowSize, c.IssueWidth)
	}
	if c.MemQueueSize <= 0 {
		return fmt.Errorf("config: memory queue must be positive, got %d", c.MemQueueSize)
	}
	if err := c.L1I.Validate("L1I"); err != nil {
		return err
	}
	if err := c.L1D.Validate("L1D"); err != nil {
		return err
	}
	if err := c.L2.Validate("L2"); err != nil {
		return err
	}
	if c.L1I.LineBytes != c.L2.LineBytes || c.L1D.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("config: L1/L2 line sizes must match")
	}
	if c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("config: page size %d must be a positive power of two", c.PageBytes)
	}
	if c.PageBytes < c.L2.LineBytes {
		return fmt.Errorf("config: page size %d smaller than line size %d", c.PageBytes, c.L2.LineBytes)
	}
	if c.StreamBufEntries < 0 {
		return fmt.Errorf("config: stream buffer entries must be non-negative")
	}
	if c.Consistency != RC && c.Consistency != PC && c.Consistency != SC {
		return fmt.Errorf("config: unknown consistency model %d", c.Consistency)
	}
	if c.ITLBEntries <= 0 || c.DTLBEntries <= 0 {
		return fmt.Errorf("config: TLB entry counts must be positive (iTLB %d, dTLB %d)", c.ITLBEntries, c.DTLBEntries)
	}
	if c.MemBanks <= 0 {
		return fmt.Errorf("config: memory banks must be positive, got %d", c.MemBanks)
	}
	if c.WriteBufEntries <= 0 {
		return fmt.Errorf("config: write buffer entries must be positive, got %d", c.WriteBufEntries)
	}
	if c.FetchBufferEntries <= 0 {
		return fmt.Errorf("config: fetch buffer entries must be positive, got %d", c.FetchBufferEntries)
	}
	if c.LatchPolicy != LatchPlain && c.LatchPolicy != LatchHints && c.LatchPolicy != LatchHTM {
		return fmt.Errorf("config: unknown latch policy %d", c.LatchPolicy)
	}
	if err := c.HTM.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// LineBytes returns the (common) cache line size.
func (c Config) LineBytes() int { return c.L2.LineBytes }

// HTMReadSetLines resolves the transactional read-set bound: the
// configured value, or the L1D line capacity when unset — the tracking
// structure rides the data cache, so its reach is the cache's.
func (c Config) HTMReadSetLines() int {
	if c.HTM.ReadSetLines > 0 {
		return c.HTM.ReadSetLines
	}
	return c.L1D.SizeBytes / c.L1D.LineBytes
}

// HTMWriteSetLines resolves the transactional write-set bound: the
// configured value, or a quarter of the L1D line capacity when unset
// (speculative store versioning is the scarcer resource).
func (c Config) HTMWriteSetLines() int {
	if c.HTM.WriteSetLines > 0 {
		return c.HTM.WriteSetLines
	}
	return c.L1D.SizeBytes / c.L1D.LineBytes / 4
}
