package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/checkpoint"
)

// SelfSample is one observation of a worker process's own health —
// cc-metric-collector's `self` collector pattern applied to sweep workers:
// each process samples its Go runtime (heap, GC, goroutines), its OS
// resource usage (rusage), and its work rate, and the samples flow through
// the telemetry Prometheus surface so a scraper sees every worker in a
// fleet under one page.
type SelfSample struct {
	UnixMilli int64 `json:"unix_ms"`

	// Go runtime.
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64 `json:"heap_sys_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	Goroutines      int    `json:"goroutines"`

	// OS rusage (self).
	UserCPUSeconds float64 `json:"user_cpu_seconds"`
	SysCPUSeconds  float64 `json:"sys_cpu_seconds"`
	MaxRSSKB       int64   `json:"max_rss_kb"`

	// Work rate, supplied by the caller's counter.
	PointsDone   uint64  `json:"points_done"`
	PointsPerSec float64 `json:"points_per_sec"`

	// Checkpoint activity (process-wide cumulative, from
	// internal/checkpoint): captures written, bytes written, and seconds
	// spent writing. Rides every heartbeat so sweepd's /metrics page
	// shows per-worker checkpoint roll-ups.
	CheckpointCaptures     uint64  `json:"checkpoint_captures,omitempty"`
	CheckpointBytes        uint64  `json:"checkpoint_bytes,omitempty"`
	CheckpointWriteSeconds float64 `json:"checkpoint_write_seconds,omitempty"`

	// Sim carries cumulative simulation counters the worker has
	// accumulated from its completed points (e.g. lock-table contention
	// and HTM elision totals), keyed by metric suffix.
	Sim map[string]uint64 `json:"sim,omitempty"`
}

// CollectSelf takes one self-sample. pointsDone is the caller's cumulative
// completed-work counter (0 when not tracked); the rate fields are filled
// in by SelfCollector, which knows the previous sample.
func CollectSelf(pointsDone uint64) *SelfSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &SelfSample{
		UnixMilli:       time.Now().UnixMilli(),
		HeapAllocBytes:  ms.HeapAlloc,
		HeapSysBytes:    ms.HeapSys,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		Goroutines:      runtime.NumGoroutine(),
		PointsDone:      pointsDone,
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.UserCPUSeconds = tvSeconds(ru.Utime)
		s.SysCPUSeconds = tvSeconds(ru.Stime)
		s.MaxRSSKB = int64(ru.Maxrss)
	}
	s.CheckpointCaptures, s.CheckpointBytes, s.CheckpointWriteSeconds = checkpoint.Stats()
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// SelfCollector samples the process when it is read: a sweep worker
// calls Sample on each heartbeat (the sample rides the renewal to
// sweepd's /metrics page) and on each scrape of its own -metrics-addr
// page.
type SelfCollector struct {
	// Points returns the cumulative completed-work counter (nil = 0).
	Points func() uint64
	// SimCounters returns cumulative simulation counters to attach to
	// each sample (nil = none).
	SimCounters func() map[string]uint64

	mu   sync.Mutex
	last *SelfSample // the previous sample, for the work rate
}

// Sample takes one sample now and derives the work rate over the window
// since the previous sample.
func (c *SelfCollector) Sample() *SelfSample {
	var points uint64
	if c.Points != nil {
		points = c.Points()
	}
	s := CollectSelf(points)
	if c.SimCounters != nil {
		s.Sim = c.SimCounters()
	}
	c.mu.Lock()
	if prev := c.last; prev != nil && s.UnixMilli > prev.UnixMilli {
		dt := float64(s.UnixMilli-prev.UnixMilli) / 1e3
		s.PointsPerSec = float64(s.PointsDone-prev.PointsDone) / dt
	}
	c.last = s
	c.mu.Unlock()
	return s
}

// PromSelf renders a self-sample as Prometheus gauges named
// <prefix>self_* with the given labels (e.g. worker="w1"), using the same
// label grammar as PromSink so sweepd can splice every worker's latest
// sample into one exposition page.
func PromSelf(sb *strings.Builder, prefix string, s *SelfSample, tags map[string]string) {
	if s == nil {
		return
	}
	lbl := labelString(tags)
	g := func(name string, v float64) {
		fmt.Fprintf(sb, "%s%s%s %g\n", prefix, name, lbl, v)
	}
	g("self_heap_alloc_bytes", float64(s.HeapAllocBytes))
	g("self_heap_sys_bytes", float64(s.HeapSysBytes))
	g("self_total_alloc_bytes", float64(s.TotalAllocBytes))
	g("self_gc_runs", float64(s.NumGC))
	g("self_goroutines", float64(s.Goroutines))
	g("self_user_cpu_seconds", s.UserCPUSeconds)
	g("self_sys_cpu_seconds", s.SysCPUSeconds)
	g("self_max_rss_kb", float64(s.MaxRSSKB))
	g("self_points_done", float64(s.PointsDone))
	g("self_points_per_sec", s.PointsPerSec)
	g("self_checkpoint_captures", float64(s.CheckpointCaptures))
	g("self_checkpoint_bytes", float64(s.CheckpointBytes))
	g("self_checkpoint_write_seconds", s.CheckpointWriteSeconds)
	g("self_sample_unix_ms", float64(s.UnixMilli))
	if len(s.Sim) > 0 {
		keys := make([]string, 0, len(s.Sim))
		for k := range s.Sim {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g("sim_"+promLabelName(k), float64(s.Sim[k]))
		}
	}
}
