package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// FuzzScanJSONL hammers the crash-recovery scanner shared by the sweep
// journal and the sweep-service ledger with arbitrary file contents: torn
// tails, mid-file corruption, empty and garbage lines, binary noise. The
// invariants:
//
//   - obs.ScanJSONL never errors on readable input (a crashed sweep's journal
//     is always replayable) and never panics;
//   - every applied line is one of the input's newline-delimited lines,
//     verbatim (no splicing across line boundaries);
//   - applied + warned covers every non-empty line: nothing is silently
//     dropped.
func FuzzScanJSONL(f *testing.F) {
	rec, _ := json.Marshal(&Record{ID: "a", SpecHash: "h1", Status: StatusOK})
	f.Add([]byte(""))
	f.Add(append(rec, '\n'))
	f.Add(append(append([]byte(nil), rec...), []byte("\n{\"torn")...))                        // torn tail
	f.Add(append([]byte("{\"bad\"\n"), append(append([]byte(nil), rec...), '\n')...))         // mid-file corruption
	f.Add([]byte("\n\n\n"))                                                                   // only blank lines
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', 'x'})                                                // binary noise
	f.Add(append(append(append([]byte(nil), rec...), '\n'), append(rec, '\n', '\n', ' ')...)) // dup + trailing junk

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "scan.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		warned := 0
		var applied [][]byte
		err := obs.ScanJSONL(path,
			func(format string, args ...any) { warned++ },
			func(line []byte) bool {
				var v map[string]any
				if json.Unmarshal(line, &v) != nil {
					return false
				}
				applied = append(applied, append([]byte(nil), line...))
				return true
			})
		if err != nil {
			t.Fatalf("obs.ScanJSONL errored on readable input: %v", err)
		}

		lines := bytes.Split(data, []byte("\n"))
		nonEmpty := 0
		isLine := make(map[string]bool, len(lines))
		for _, l := range lines {
			l = bytes.TrimSuffix(l, []byte("\r")) // bufio.ScanLines strips \r
			if len(l) > 0 {
				nonEmpty++
				isLine[string(l)] = true
			}
		}
		for _, l := range applied {
			if !isLine[string(l)] {
				t.Errorf("applied line %q is not a line of the input", l)
			}
		}
		// The scanner drops a line only with a warning. (bufio treats a
		// final \r\n-free fragment as a line too, so >= not ==.)
		if len(applied)+warned < nonEmpty {
			t.Errorf("%d non-empty lines, but only %d applied + %d warned",
				nonEmpty, len(applied), warned)
		}
	})
}
