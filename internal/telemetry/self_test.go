package telemetry

import (
	"strings"
	"testing"
)

func TestCollectSelfPopulates(t *testing.T) {
	s := CollectSelf(7)
	if s.HeapAllocBytes == 0 || s.HeapSysBytes == 0 {
		t.Fatalf("heap gauges empty: %+v", s)
	}
	if s.Goroutines < 1 {
		t.Fatalf("goroutines = %d, want >= 1", s.Goroutines)
	}
	if s.MaxRSSKB <= 0 {
		t.Fatalf("max rss = %d, want > 0 (rusage must be readable)", s.MaxRSSKB)
	}
	if s.PointsDone != 7 {
		t.Fatalf("points done = %d, want 7", s.PointsDone)
	}
	if s.UnixMilli == 0 {
		t.Fatal("timestamp missing")
	}
}

func TestSelfCollectorRate(t *testing.T) {
	points := uint64(0)
	c := &SelfCollector{Points: func() uint64 { return points }}
	first := c.Sample()
	if first.PointsPerSec != 0 {
		t.Fatalf("first sample rate = %v, want 0 (no previous window)", first.PointsPerSec)
	}
	// Fake the previous sample's timestamp back so the rate window is
	// exactly 2 seconds of wall clock with 10 points of progress.
	c.mu.Lock()
	c.last.UnixMilli -= 2000
	c.mu.Unlock()
	points = 10
	second := c.Sample()
	if second.PointsPerSec < 4.5 || second.PointsPerSec > 5.5 {
		t.Fatalf("rate = %v points/sec, want ~5", second.PointsPerSec)
	}
}

func TestPromSelfExposition(t *testing.T) {
	s := &SelfSample{
		UnixMilli: 1234, HeapAllocBytes: 1 << 20, Goroutines: 9,
		UserCPUSeconds: 1.5, MaxRSSKB: 2048, PointsDone: 3, PointsPerSec: 0.5,
	}
	var sb strings.Builder
	PromSelf(&sb, "sweepd_worker_", s, map[string]string{"worker": "w1"})
	out := sb.String()
	for _, want := range []string{
		`sweepd_worker_self_heap_alloc_bytes{worker="w1"} 1.048576e+06`,
		`sweepd_worker_self_goroutines{worker="w1"} 9`,
		`sweepd_worker_self_user_cpu_seconds{worker="w1"} 1.5`,
		`sweepd_worker_self_max_rss_kb{worker="w1"} 2048`,
		`sweepd_worker_self_points_done{worker="w1"} 3`,
		`sweepd_worker_self_points_per_sec{worker="w1"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Nil sample renders nothing (worker hasn't heartbeat yet).
	var empty strings.Builder
	PromSelf(&empty, "x_", nil, nil)
	if empty.Len() != 0 {
		t.Fatalf("nil sample rendered %q", empty.String())
	}
}
