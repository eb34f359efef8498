package sweepsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Crash-consistency audit for both durable files: the runner's journal
// and the sweep service's ledger, which append through the same
// runner.Journal and replay through obs.ScanJSONL. Both promise the
// same contract — every Append is fsynced before returning, so a crash (power
// loss included) loses at most the record being written, and replay
// recovers every earlier record while warning about the damage instead of
// failing. The table simulates the crash artifacts a torn write leaves:
// a half-written trailing record, corruption in the middle of the file,
// and a truncation landing exactly on a record boundary.

// crashSurface abstracts one durable append path.
type crashSurface struct {
	name string
	// write appends n records to path through the real (fsyncing) Append
	// and returns their keys in append order.
	write func(t *testing.T, path string, n int) []string
	// replay recovers the file, returning the recovered keys and the
	// number of warnings raised.
	replay func(t *testing.T, path string) (map[string]bool, int)
}

func journalSurface() crashSurface {
	return crashSurface{
		name: "runner-journal",
		write: func(t *testing.T, path string, n int) []string {
			j, err := runner.OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			keys := make([]string, 0, n)
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("hash-%02d", i)
				if err := j.Append(&runner.Record{ID: key, SpecHash: key, Status: runner.StatusOK, Attempts: 1}); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
			return keys
		},
		replay: func(t *testing.T, path string) (map[string]bool, int) {
			warns := 0
			got := make(map[string]bool)
			err := obs.ScanJSONL(path, func(string, ...any) { warns++ }, func(line []byte) bool {
				var r runner.Record
				if json.Unmarshal(line, &r) != nil || r.SpecHash == "" {
					return false
				}
				got[r.SpecHash] = true
				return true
			})
			if err != nil {
				t.Fatalf("journal replay must survive crash artifacts: %v", err)
			}
			return got, warns
		},
	}
}

func ledgerSurface() crashSurface {
	return crashSurface{
		name: "sweepsvc-ledger",
		write: func(t *testing.T, path string, n int) []string {
			l, err := runner.OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			keys := make([]string, 0, n)
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("hash-%02d", i)
				if err := l.Append(&LedgerRecord{Type: "point", ID: key, Hash: key}); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
			return keys
		},
		replay: func(t *testing.T, path string) (map[string]bool, int) {
			warns := 0
			got := make(map[string]bool)
			err := ReplayLedger(path, func(string, ...any) { warns++ }, func(r *LedgerRecord) {
				got[r.Hash] = true
			})
			if err != nil {
				t.Fatalf("ledger replay must survive crash artifacts: %v", err)
			}
			return got, warns
		},
	}
}

// TestCrashConsistency damages each surface's file the way a crash would
// and asserts the fsync-per-record recovery contract.
func TestCrashConsistency(t *testing.T) {
	const n = 5
	damages := []struct {
		name string
		// damage mutates the intact file bytes into the crash artifact.
		damage func(data []byte) []byte
		// lost returns the indices of records expected missing afterwards.
		lost      []int
		wantWarns int
	}{
		{
			name:   "intact",
			damage: func(data []byte) []byte { return data },
		},
		{
			name: "torn-trailing-record",
			damage: func(data []byte) []byte {
				// Crash mid-write of the final record: cut it in half.
				trimmed := bytes.TrimSuffix(data, []byte("\n"))
				start := bytes.LastIndexByte(trimmed, '\n') + 1
				return data[:start+(len(trimmed)-start)/2]
			},
			lost:      []int{n - 1},
			wantWarns: 1,
		},
		{
			name: "truncated-on-record-boundary",
			damage: func(data []byte) []byte {
				// Crash after a completed fsync: the tail records simply
				// don't exist yet. No damage to see, so no warning.
				lines := bytes.SplitAfter(data, []byte("\n"))
				return bytes.Join(lines[:n-2], nil)
			},
			lost: []int{n - 2, n - 1},
		},
		{
			name: "mid-file-corruption",
			damage: func(data []byte) []byte {
				// Bit rot inside record 2's line (never touching the
				// newline framing).
				lines := bytes.SplitAfter(data, []byte("\n"))
				line := lines[2]
				for i := 1; i < len(line)-2; i++ {
					line[i] = 'x'
				}
				return bytes.Join(lines, nil)
			},
			lost:      []int{2},
			wantWarns: 1,
		},
		{
			name: "garbage-tail",
			damage: func(data []byte) []byte {
				// Crash mid-write before any payload bytes made it out:
				// a torn fragment of the next record.
				return append(data, []byte(`{"type":"poi`)...)
			},
			wantWarns: 1,
		},
	}

	for _, sf := range []crashSurface{journalSurface(), ledgerSurface()} {
		for _, dm := range damages {
			t.Run(sf.name+"/"+dm.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "file.jsonl")
				keys := sf.write(t, path, n)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, dm.damage(data), 0o644); err != nil {
					t.Fatal(err)
				}

				got, warns := sf.replay(t, path)
				lost := make(map[int]bool, len(dm.lost))
				for _, i := range dm.lost {
					lost[i] = true
				}
				for i, key := range keys {
					if lost[i] {
						if got[key] {
							t.Errorf("record %d should have been lost to the crash but replayed", i)
						}
					} else if !got[key] {
						t.Errorf("record %d was fsynced before the crash but did not replay", i)
					}
				}
				if warns != dm.wantWarns {
					t.Errorf("replay raised %d warnings, want %d", warns, dm.wantWarns)
				}
			})
		}
	}
}
