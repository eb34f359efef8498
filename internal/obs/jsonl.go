package obs

import (
	"bufio"
	"os"
)

// ScanJSONL streams the lines of an append-only JSONL file at path into
// apply, which reports whether the line parsed. A missing file is an empty
// file. Lines that fail to parse are skipped and reported to warn (when
// non-nil): a final unparsable line is a torn tail from a crash mid-write,
// anything earlier is corruption. The sweep-service ledger, the runner
// journal and span logs are read through this, so each survives a crash
// mid-append.
func ScanJSONL(path string, warn func(format string, args ...any), apply func(line []byte) bool) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	if warn == nil {
		warn = func(string, ...any) {}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // snapshots + results can be large
	lineNo := 0
	badLine := 0 // most recent unparsable line (0 = none pending)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if badLine != 0 {
			// The unparsable line had lines after it: real corruption, not
			// a torn tail.
			warn("%s: corrupt record at line %d skipped (mid-file corruption)", path, badLine)
			badLine = 0
		}
		if !apply(line) {
			badLine = lineNo
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if badLine != 0 {
		warn("%s: torn trailing record at line %d skipped (crash mid-write)", path, badLine)
	}
	return nil
}
