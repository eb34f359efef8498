package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Nodes != 4 || cfg.IssueWidth != 4 || cfg.WindowSize != 64 {
		t.Error("defaults do not match Figure 1")
	}
	if cfg.L1I.SizeBytes != 128<<10 || cfg.L1D.SizeBytes != 128<<10 || cfg.L2.SizeBytes != 8<<20 {
		t.Error("cache sizes do not match Figure 1")
	}
	if cfg.LineBytes() != 64 || cfg.PageBytes != 8<<10 {
		t.Error("line/page sizes do not match Figure 1")
	}
	if cfg.Consistency != RC {
		t.Error("base system must be release consistent")
	}
}

func TestValidateAcceptsLargestMachine(t *testing.T) {
	cfg := Default()
	cfg.Nodes = 64
	if err := cfg.Validate(); err != nil {
		t.Fatalf("64 nodes rejected: %v", err)
	}
}

func TestCacheGeometry(t *testing.T) {
	c := CacheConfig{SizeBytes: 128 << 10, Assoc: 2, LineBytes: 64, HitCycles: 1, Ports: 1, MSHRs: 8}
	if got, want := c.Sets(), 1024; got != want {
		t.Errorf("Sets() = %d, want %d", got, want)
	}
	if err := c.Validate("t"); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"no nodes", func(c *Config) { c.Nodes = 0 }, "node"},
		{"too many nodes", func(c *Config) { c.Nodes = 65 }, "65 nodes exceed the coherence directory's limit of 64"},
		{"zero issue", func(c *Config) { c.IssueWidth = 0 }, "issue"},
		{"window < issue", func(c *Config) { c.WindowSize = 2 }, "window"},
		{"zero memq", func(c *Config) { c.MemQueueSize = 0 }, "memory queue"},
		{"bad line", func(c *Config) { c.L1D.LineBytes = 48 }, "divisible"},
		{"line mismatch", func(c *Config) { c.L1I.LineBytes = 128; c.L1I.SizeBytes = 256 << 10 }, "line sizes"},
		{"bad page", func(c *Config) { c.PageBytes = 3000 }, "page size"},
		{"page < line", func(c *Config) { c.PageBytes = 32 }, "page size"},
		{"wide L1I", func(c *Config) { c.L1I.Assoc = 32 }, "associativity 32 exceeds"},
		{"wide L1D", func(c *Config) { c.L1D.Assoc = 32 }, "associativity 32 exceeds"},
		{"wide L2", func(c *Config) { c.L2.Assoc = 64 }, "associativity 64 exceeds"},
		{"no mshr", func(c *Config) { c.L2.MSHRs = 0 }, "MSHR"},
		{"negative sbuf", func(c *Config) { c.StreamBufEntries = -1 }, "stream buffer"},
		{"bad model", func(c *Config) { c.Consistency = ConsistencyModel(9) }, "consistency"},
	}
	for _, tc := range cases {
		cfg := Default()
		tc.mod(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if RC.String() != "RC" || PC.String() != "PC" || SC.String() != "SC" {
		t.Error("consistency model names wrong")
	}
	if ImplPlain.String() != "plain" || ImplSpeculative.String() != "+pf+spec" {
		t.Error("implementation names wrong")
	}
	if !strings.Contains(ConsistencyModel(7).String(), "7") {
		t.Error("unknown model should include its value")
	}
}

func TestLatencyComposition(t *testing.T) {
	// Verify the documented Figure 1 composition arithmetic stays true if
	// someone edits the constants.
	cfg := Default()
	local := 1 + 1 + cfg.L2.HitCycles + cfg.BusCycles + cfg.DirCycles + cfg.MemoryCycles + cfg.BusCycles
	if local < 85 || local > 115 {
		t.Errorf("local read composition = %d cycles, want ~100 (Figure 1)", local)
	}
	ctrl := cfg.HopCycles + cfg.CtrlFlits*cfg.FlitCycles
	data := cfg.HopCycles + cfg.DataFlits*cfg.FlitCycles
	remote := local + ctrl + data
	if remote < 150 || remote > 195 {
		t.Errorf("remote read composition = %d cycles, want 160-180", remote)
	}
	dirty := 2*cfg.BusCycles + 2*ctrl + cfg.DirCycles + cfg.InterventionCycles + cfg.L2.HitCycles + data - ctrl
	if dirty < 250 || dirty > 340 {
		t.Errorf("cache-to-cache composition = %d cycles, want 280-310", dirty)
	}
}
