package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/obs"
)

// readRecords replays a journal of Records through obs.ScanJSONL, keyed by
// spec hash.
func readRecords(t *testing.T, path string, warn func(string, ...any)) map[string]*Record {
	t.Helper()
	recs := make(map[string]*Record)
	err := obs.ScanJSONL(path, warn, func(line []byte) bool {
		var r Record
		if json.Unmarshal(line, &r) != nil || r.SpecHash == "" {
			return false
		}
		recs[r.SpecHash] = &r
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestJournalRoundTrip: appended records come back through obs.ScanJSONL with
// snapshots intact.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{ID: "a", SpecHash: "h-a", Status: StatusOK, Attempts: 1},
		{ID: "b", SpecHash: "h-b", Status: StatusFailed, Attempts: 3, Class: ClassProgress,
			Error: "no forward progress", Diag: &diag.Snapshot{Cycle: 7, Reason: "watchdog"}},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := readRecords(t, path, nil)
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	b := got["h-b"]
	if b == nil || b.Status != StatusFailed || b.Diag == nil || b.Diag.Reason != "watchdog" {
		t.Fatalf("record b = %+v, want failed with watchdog snapshot", b)
	}
}

// TestJournalToleratesPartialLine: a crash mid-write leaves a trailing
// partial line; reading must skip it and keep the intact records.
func TestJournalToleratesPartialLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Append(&Record{ID: "a", SpecHash: "h-a", Status: StatusOK})
	_ = j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"b","spec_ha`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	got := readRecords(t, path, nil)
	if len(got) != 1 || got["h-a"] == nil {
		t.Fatalf("read %d records, want the 1 intact one", len(got))
	}
}

// TestReadJournalMissingFile: obs.ScanJSONL reads a missing journal as
// empty, not an error.
func TestReadJournalMissingFile(t *testing.T) {
	lines := 0
	err := obs.ScanJSONL(filepath.Join(t.TempDir(), "absent.jsonl"), nil, func([]byte) bool {
		lines++
		return true
	})
	if err != nil || lines != 0 {
		t.Fatalf("got %d lines, %v; want none, nil", lines, err)
	}
}

// TestSpecHash: stable for equal specs, different for different specs,
// and well-defined for unmarshalable ones.
func TestSpecHash(t *testing.T) {
	type spec struct{ A, B int }
	if SpecHash(spec{1, 2}) != SpecHash(spec{1, 2}) {
		t.Error("equal specs hash differently")
	}
	if SpecHash(spec{1, 2}) == SpecHash(spec{1, 3}) {
		t.Error("different specs collide")
	}
	if h := SpecHash(func() {}); h != "unhashable" {
		t.Errorf("unmarshalable spec hash = %q", h)
	}
}

// TestReadJournalWarnDistinguishesTornFromCorrupt: replaying a journal
// through obs.ScanJSONL, an unparsable final line warns as a torn tail
// (expected crash artifact); an unparsable line with intact records after
// it warns as mid-file corruption.
func TestReadJournalWarnDistinguishesTornFromCorrupt(t *testing.T) {
	write := func(t *testing.T, lines ...string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rec := `{"id":"a","spec_hash":"h-a","status":"ok","attempts":1}`
	cases := []struct {
		name     string
		lines    []string
		want     string // substring of the expected warning
		survived int
	}{
		{"torn-tail", []string{rec, `{"id":"b","spec_ha`}, "torn trailing record at line 2", 1},
		{"mid-file", []string{`{"broken`, rec}, "corrupt record at line 1", 1},
		{"clean", []string{rec, ""}, "", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var warns []string
			got := readRecords(t, write(t, tc.lines...), func(f string, a ...any) {
				warns = append(warns, fmt.Sprintf(f, a...))
			})
			if len(got) != tc.survived {
				t.Fatalf("%d records survived, want %d", len(got), tc.survived)
			}
			if tc.want == "" {
				if len(warns) != 0 {
					t.Fatalf("unexpected warnings: %q", warns)
				}
				return
			}
			found := false
			for _, w := range warns {
				if strings.Contains(w, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("warnings %q missing %q", warns, tc.want)
			}
		})
	}
}
