// Command traceview renders the aggregate reports from a dbsim event
// trace (written with dbsim -trace-events): the per-PC and per-operation
// stall-attribution profile — reconciled against the simulator's own
// execution-time breakdown when the trace embeds it — the
// migratory-sharing attribution of dirty-miss time, and the per-class
// miss-latency histograms.
//
// Examples:
//
//	dbsim -workload oltp -trace-events run.trace.json
//	traceview run.trace.json
//	traceview -top 40 run.trace.json
//
// Exit status: 0 on success, 1 when the trace cannot be read or is
// empty, 2 on flag/usage errors.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/stats"
	"repro/internal/tracing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceview: ")

	top := flag.Int("top", 20, "rows to show in the per-site and per-line tables")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "traceview: usage: traceview [-top N] trace.json")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	tf, err := tracing.ReadFile(f)
	f.Close()
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	an := tf.Analysis
	totals := an.Totals()
	kept, _ := tf.OtherData["events_kept"].(float64)
	if totals.Total() == 0 && kept == 0 {
		log.Printf("%s: trace contains no events", flag.Arg(0))
		os.Exit(1)
	}

	fmt.Printf("trace               %s\n", flag.Arg(0))
	if label, ok := tf.OtherData["label"].(string); ok {
		fmt.Printf("run                 %s\n", label)
	}
	fmt.Printf("window              cycles %d..%d\n", an.StartCycle, an.EndCycle)
	fmt.Printf("raw events          %d retained\n", uint64(kept))
	fmt.Printf("analysis            embedded aggregates\n\n")

	var ref *stats.Breakdown
	if b, ok := tracing.BreakdownFromMeta(tf.OtherData[tracing.BreakdownMetaKey]); ok {
		ref = &b
	}

	fmt.Printf("== stall attribution by instruction (top %d) ==\n", *top)
	fmt.Print(tracing.FormatStallProfile(an.StallProfile(tf.Resolve, *top), totals, ref))

	fmt.Printf("\n== stall attribution by engine operation ==\n")
	fmt.Print(tracing.FormatStallProfile(an.OperationProfile(tf.Resolve), totals, nil))

	fmt.Printf("\n== migratory sharing (dirty-miss attribution) ==\n")
	mig, non, rows := an.MigratorySummary(*top)
	fmt.Print(tracing.FormatMigratory(mig, non, rows))

	fmt.Printf("\n== miss latency by service class ==\n")
	fmt.Print(tracing.FormatLatency(&an.Lat))
}
