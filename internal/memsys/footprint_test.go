package memsys

import (
	"runtime"
	"testing"

	"repro/internal/config"
)

// TestNewFootprint bounds what building the default machine allocates.
// Its 540,672 cache ways (four nodes, each with two 128 KB L1s and an 8 MB
// L2 of 64-byte lines) take 2.16 MB at 4 bytes a way; 8-byte ways would
// take 4.3 MB.
func TestNewFootprint(t *testing.T) {
	const limit = 2.4e6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := MustNew(config.Default())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("memsys.New(config.Default()) allocated %d bytes", got)
	if got > limit {
		t.Errorf("memsys.New(config.Default()) allocated %d bytes, want at most %.0f", got, limit)
	}
}
