package workload_test

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

var updateStreamGolden = flag.Bool("update", false, "rewrite testdata/stream_golden.txt from the current generators")

const streamGoldenFile = "testdata/stream_golden.txt"

// fingerprint drains s and returns its instruction count and an FNV-64a
// hash over every field of every instruction.
func fingerprint(s trace.Stream) (uint64, uint64) {
	h := fnv.New64a()
	var buf [8 + 8 + 8 + 4 + 1 + 1 + 1 + 1 + 1]byte
	var in trace.Instr
	var n uint64
	for s.Next(&in) {
		n++
		binary.LittleEndian.PutUint64(buf[0:], in.PC)
		binary.LittleEndian.PutUint64(buf[8:], in.Addr)
		binary.LittleEndian.PutUint64(buf[16:], in.Target)
		binary.LittleEndian.PutUint32(buf[24:], in.Latency)
		buf[28] = byte(in.Op)
		buf[29] = in.Src1
		buf[30] = in.Src2
		buf[31] = in.Dest
		buf[32] = 0
		if in.Taken {
			buf[32] = 1
		}
		h.Write(buf[:])
	}
	return n, h.Sum64()
}

// streamGoldenLines fingerprints every process's full stream for a few
// small OLTP and DSS configurations. Streams are drained one process at a
// time, in process order.
func streamGoldenLines(t *testing.T) []string {
	var lines []string
	add := func(name string, procs int, stream func(int) trace.Stream) {
		for p := 0; p < procs; p++ {
			n, h := fingerprint(stream(p))
			if n == 0 {
				t.Fatalf("%s/proc%d: empty stream", name, p)
			}
			lines = append(lines, fmt.Sprintf("%s/proc%d %d %016x", name, p, n, h))
		}
	}

	for _, hints := range []oltp.HintLevel{oltp.HintNone, oltp.HintFlushPrefetch} {
		cfg := oltp.DefaultConfig(1)
		cfg.Processes = 2
		cfg.TransactionsPerProcess = 2
		cfg.Hints = hints
		w := oltp.New(cfg)
		add(fmt.Sprintf("oltp-hints%d", hints), cfg.Processes, w.Stream)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
	}

	// 3,000 rows in batches of 700 cover five batches (the last one
	// partial) and six block headers (512 rows per block), neither aligned
	// with the other. Batches of 1,001 rows also start at odd rows.
	for _, batch := range []int{700, 1001} {
		cfg := dss.DefaultConfig(1)
		cfg.Processes = 3
		cfg.RowsPerProcess = 3_000
		cfg.BatchRows = batch
		w := dss.New(cfg)
		add(fmt.Sprintf("dss-batch%d", batch), cfg.Processes, w.Stream)
		if got, want := w.RowsScanned, uint64(cfg.Processes*cfg.RowsPerProcess); got != want {
			t.Fatalf("dss RowsScanned = %d, want %d", got, want)
		}
	}
	return lines
}

// TestStreamGolden pins the generated instruction streams, instruction
// for instruction. DSS checkpoints restore by re-drawing a recorded number
// of instructions, so any change here also breaks old checkpoints.
// Regenerate with `go test ./internal/workload -run TestStreamGolden
// -update` only for a change that is meant to alter the workloads.
func TestStreamGolden(t *testing.T) {
	got := streamGoldenLines(t)
	if *updateStreamGolden {
		body := "# Per-process stream fingerprints: name instructions fnv64a (TestStreamGolden).\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(streamGoldenFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(streamGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d stream fingerprints, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("stream changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
