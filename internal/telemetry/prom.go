package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/stats"
)

// PromSink exposes the series as a live Prometheus text-format endpoint:
// the latest sample becomes interval gauges (dbsim_interval_*) and the
// deltas are additionally accumulated into *_total counters, so a scraper
// polling wall-clock time sees monotone counters even though the series
// is indexed by simulated cycles.
type PromSink struct {
	mu     sync.Mutex
	last   *Sample
	totals map[string]uint64 // cumulative counters by rendered name+labels

	srv *http.Server
	ln  net.Listener
}

// NewPromSink returns a sink with no server attached; scrape it through
// Handler (tests, embedding into an existing mux).
func NewPromSink() *PromSink {
	return &PromSink{totals: make(map[string]uint64)}
}

// ListenPromSink starts an HTTP server on addr (e.g. ":9090") serving the
// metrics page at / and /metrics. It returns once the listener is bound,
// so a scrape immediately after is answered (an empty page until the
// first sample arrives).
func ListenPromSink(addr string) (*PromSink, error) {
	s := NewPromSink()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: prom listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	// Profiling alongside metrics: the telemetry port doubles as the
	// process's pprof surface, so a hung or slow simulation is inspectable
	// without restarting it with extra flags.
	MountPprof(mux)
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address ("" when no server was started).
func (s *PromSink) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Write implements Sink.
func (s *PromSink) Write(sm *Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = sm
	lbl := labelString(sm.Tags)
	add := func(name string, v uint64) { s.totals[name+lbl] += v }
	add("dbsim_instructions_total", sm.Instructions)
	add("dbsim_idle_cycles_total", sm.Idle)
	add("dbsim_streambuf_hits_total", sm.StreamBufHits)
	add("dbsim_streambuf_misses_total", sm.StreamBufMisses)
	add("dbsim_dir_reads_total", sm.Dir.Reads)
	add("dbsim_dir_reads_dirty_total", sm.Dir.ReadsDirty)
	add("dbsim_dir_writes_total", sm.Dir.Writes)
	add("dbsim_dir_writes_shared_total", sm.Dir.WritesShared)
	add("dbsim_dir_upgrades_total", sm.Dir.Upgrades)
	add("dbsim_dir_writebacks_total", sm.Dir.Writebacks)
	add("dbsim_dir_flushes_total", sm.Dir.Flushes)
	add("dbsim_dir_migratory_transfers_total", sm.Dir.MigratoryTransfers)
	add("dbsim_mesh_messages_total", sm.Mesh.Messages)
	add("dbsim_mesh_flits_total", sm.Mesh.Flits)
	add("dbsim_mesh_queue_cycles_total", sm.Mesh.QueueCycles)
	add("dbsim_lock_tries_total", sm.Locks.Tries)
	add("dbsim_lock_waits_total", sm.Locks.Waits)
	add("dbsim_lock_spin_cycles_total", sm.Locks.SpinCycles)
	add("dbsim_locktable_acquires_total", sm.Locks.Acquires)
	add("dbsim_locktable_contended_acquires_total", sm.Locks.Contended)
	add("dbsim_locktable_handoffs_total", sm.Locks.Handoffs)
	add("dbsim_htm_begins_total", sm.HTM.Begins)
	add("dbsim_htm_commits_total", sm.HTM.Commits)
	add("dbsim_htm_fallbacks_total", sm.HTM.Fallbacks)
	s.totals["dbsim_htm_aborts_total"+mergeLabels(sm.Tags, "cause", "conflict")] += sm.HTM.ConflictAborts
	s.totals["dbsim_htm_aborts_total"+mergeLabels(sm.Tags, "cause", "capacity")] += sm.HTM.CapacityAborts
	s.totals["dbsim_htm_aborts_total"+mergeLabels(sm.Tags, "cause", "explicit")] += sm.HTM.ExplicitAborts
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		s.totals[fmt.Sprintf("dbsim_breakdown_cycles_total%s", mergeLabels(sm.Tags, "component", c.String()))] += uint64(sm.Breakdown[c])
	}
	for name, v := range sm.Probes {
		s.totals[fmt.Sprintf("dbsim_probe_total%s", mergeLabels(sm.Tags, "probe", name))] += v
	}
	return nil
}

// Handler returns the scrape handler.
func (s *PromSink) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, s.Render())
	})
}

// promCheckpoint renders the process-wide checkpoint activity counters.
// They come straight from internal/checkpoint's cumulative counters at
// scrape time — not from samples — so the page reflects captures taken
// between telemetry intervals (and before the first sample lands).
func promCheckpoint(sb *strings.Builder) {
	n, b, secs := checkpoint.Stats()
	c := func(name, help string, v string) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, v)
	}
	c("dbsim_checkpoint_captures_total", "Checkpoints written by this process.", fmt.Sprint(n))
	c("dbsim_checkpoint_bytes_total", "Bytes of checkpoint images written.", fmt.Sprint(b))
	c("dbsim_checkpoint_write_seconds_total", "Wall-clock seconds spent writing checkpoints.", fmt.Sprintf("%g", secs))
}

// PromBuildInfo renders a `<name>{version=...,revision=...,go_version=...} 1`
// identity gauge (the Prometheus *_build_info convention) from the binary's
// embedded module/VCS metadata, so dashboards can correlate metric shifts
// with deploys of a new binary.
func PromBuildInfo(sb *strings.Builder, name string) {
	version, revision, goVersion := obs.BuildInfo()
	fmt.Fprintf(sb, "# HELP %s Build and version metadata of the serving binary.\n# TYPE %s gauge\n%s{version=%q,revision=%q,go_version=%q} 1\n",
		name, name, name, version, revision, goVersion)
}

// MountPprof registers the runtime profiling endpoints under /debug/pprof/
// on mux (explicitly — none of our binaries use http.DefaultServeMux, so
// net/http/pprof's import side effect alone would register nothing useful).
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Render returns the current exposition page.
func (s *PromSink) Render() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sb strings.Builder
	PromBuildInfo(&sb, "dbsim_build_info")
	if s.last == nil {
		promCheckpoint(&sb)
		sb.WriteString("# no samples yet\n")
		return sb.String()
	}
	sm := s.last
	lbl := labelString(sm.Tags)
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s%s %g\n", name, help, name, name, lbl, v)
	}
	gauge("dbsim_cycle", "Simulated machine cycle at the last sample.", float64(sm.Cycle))
	gauge("dbsim_interval_cycles", "Length of the last sampling interval in cycles.", float64(sm.Cycles))
	gauge("dbsim_interval_ipc", "Retired IPC per processor over the last interval.", sm.IPC)
	gauge("dbsim_interval_l1i_mpki", "L1I misses per kilo-instruction over the last interval.", sm.L1IMisses)
	gauge("dbsim_interval_l1d_mpki", "L1D misses per kilo-instruction over the last interval.", sm.L1DMisses)
	gauge("dbsim_interval_l2_mpki", "L2 misses per kilo-instruction over the last interval.", sm.L2Misses)
	gauge("dbsim_interval_mesh_avg_latency_cycles", "Average mesh message latency over the last interval.", sm.Mesh.AvgLatency)
	for _, cs := range sm.Cores {
		fmt.Fprintf(&sb, "dbsim_core_interval_ipc%s %g\n", mergeLabels(sm.Tags, "core", fmt.Sprint(cs.ID)), cs.IPC)
	}

	names := make([]string, 0, len(s.totals))
	for n := range s.totals {
		names = append(names, n)
	}
	sort.Strings(names)
	typed := map[string]bool{}
	for _, n := range names {
		base, _, _ := strings.Cut(n, "{")
		if !typed[base] {
			fmt.Fprintf(&sb, "# TYPE %s counter\n", base)
			typed[base] = true
		}
		fmt.Fprintf(&sb, "%s %d\n", n, s.totals[n])
	}
	promCheckpoint(&sb)
	return sb.String()
}

// Close implements Sink, shutting the HTTP server down if one was
// started.
func (s *PromSink) Close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// labelString renders tags as a Prometheus label set ("" when empty).
func labelString(tags map[string]string) string {
	return mergeLabels(tags, "", "")
}

// mergeLabels renders tags plus one extra pair as a sorted label set.
func mergeLabels(tags map[string]string, extraK, extraV string) string {
	keys := make([]string, 0, len(tags)+1)
	for k := range tags {
		keys = append(keys, k)
	}
	if extraK != "" {
		keys = append(keys, extraK)
	}
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		v := tags[k]
		if k == extraK {
			v = extraV
		}
		fmt.Fprintf(&sb, "%s=%q", promLabelName(k), v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// promLabelName maps arbitrary tag keys onto the Prometheus label
// grammar [a-zA-Z_][a-zA-Z0-9_]*.
func promLabelName(k string) string {
	out := []byte(k)
	for i, c := range out {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			out[i] = '_'
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}
