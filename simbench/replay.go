package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bpred"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// recordN is how many dynamic instructions of process 0 the traced run
// records at the Stream boundary for the layer replays: more than one
// OLTP transaction and about half a DSS query server's scan.
const recordN = 200_000

// replayMin is how long each replay repeats its pass over the recording.
const replayMin = 300 * time.Millisecond

// nsPerOp repeats pass, which returns the operations it made, for at
// least replayMin and returns the median nanoseconds per operation.
func nsPerOp(pass func() int) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < replayMin {
		t := time.Now()
		n := pass()
		if n == 0 {
			return 0
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(per)
}

// replays times the public entry points of single layers on recorded
// instructions and returns their replay.* metrics.
func replays(instrs []trace.Instr, sp *spanLog, parent int) (map[string]float64, error) {
	if len(instrs) == 0 {
		return nil, errors.New("no recorded instructions")
	}
	cfg := config.Default()
	out := map[string]float64{}
	var err error

	sp.around("replay.bpred", parent, func() {
		var branches []trace.Instr
		for _, in := range instrs {
			if in.Op.IsBranch() {
				branches = append(branches, in)
			}
		}
		p := bpred.New(bpred.Config{
			PAEntries: cfg.BPredPAEntries, HistoryBits: cfg.BPredHistoryBits,
			BTBEntries: cfg.BTBEntries, BTBAssoc: cfg.BTBAssoc, RASEntries: cfg.RASEntries,
		})
		out["replay.bpred.ns_per_branch"] = nsPerOp(func() int {
			for i := range branches {
				p.PredictAndUpdate(&branches[i])
			}
			return len(branches)
		})
	})

	var addrs []uint64
	for _, in := range instrs {
		if in.Op == trace.OpLoad || in.Op == trace.OpStore {
			addrs = append(addrs, in.Addr)
		}
	}
	sp.around("replay.tlb", parent, func() {
		var pt *tlb.PageTable
		var t *tlb.TLB
		if pt, err = tlb.NewPageTable(cfg.PageBytes); err != nil {
			return
		}
		if t, err = tlb.New(cfg.DTLBEntries); err != nil {
			return
		}
		out["replay.tlb.ns_per_translate"] = nsPerOp(func() int {
			for _, a := range addrs {
				pt.Translate(a, 0)
				t.Lookup(pt.VPN(a))
			}
			return len(addrs)
		})
	})
	if err != nil {
		return nil, err
	}

	sp.around("replay.memsys", parent, func() {
		var ms *memsys.System
		if ms, err = memsys.New(cfg); err != nil {
			return
		}
		h := ms.Node(0)
		var now uint64 // advances two cycles per instruction, across passes
		out["replay.memsys.ns_per_access"] = nsPerOp(func() int {
			n := 0
			for i := range instrs {
				now += 2
				switch instrs[i].Op {
				case trace.OpLoad:
					h.DataRead(instrs[i].Addr, instrs[i].PC, now, false)
					n++
				case trace.OpStore:
					h.DataWrite(instrs[i].Addr, instrs[i].PC, now, false)
					n++
				}
			}
			return n
		})
		out["replay.memsys.ns_per_ifetch"] = nsPerOp(func() int {
			n, line := 0, ^uint64(0)
			for i := range instrs {
				now += 2
				if l := instrs[i].PC >> 6; l != line {
					line = l
					h.IFetch(instrs[i].PC, now)
					n++
				}
			}
			return n
		})
	})
	if err != nil {
		return nil, err
	}

	sp.around("replay.cpu", parent, func() {
		// One core running the recording as its only process.
		one := cfg
		one.Nodes = 1
		out["replay.cpu.ns_per_instr"] = nsPerOp(func() int {
			sys, e := core.NewSystem(one)
			if e != nil {
				err = e
				return 0
			}
			sys.AddProcess(0, trace.NewSliceStream(instrs))
			rep, e := sys.Run(core.RunOptions{Label: "replay", MaxCycles: maxReplayCycles})
			if e != nil {
				err = e
				return 0
			}
			return int(rep.Instructions)
		})
	})
	return out, err
}

const maxReplayCycles = 200_000_000

// checkpointReplay captures one mid-run checkpoint of sim s (built with
// the workload's record/replay layer armed), the first at cycle interval,
// and times its decode.
func checkpointReplay(s *sim, interval uint64, dir string, sp *spanLog, parent int) (map[string]float64, error) {
	path := filepath.Join(dir, "replay.ckpt")
	defer os.Remove(path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := "simbench/" + s.name
	var capAt time.Time
	opt := s.opt
	opt.Context = ctx
	opt.Checkpoint = &core.CheckpointOptions{
		Path:     path,
		Interval: interval,
		Workload: s.ckpt,
		SpecHash: spec,
		// Stop after the first periodic capture; the cancel path then
		// writes one more, so two captures are timed.
		OnCapture: func(uint64, string) {
			if capAt.IsZero() {
				capAt = time.Now()
			}
			cancel()
		},
	}
	n0, b0, s0 := checkpoint.Stats()
	t0 := time.Now()
	_, err := s.sys.Run(opt)
	var ce *core.CanceledError
	if !errors.As(err, &ce) {
		return nil, fmt.Errorf("checkpoint replay: want a canceled run, got %v", err)
	}
	n1, b1, s1 := checkpoint.Stats()
	if n1-n0 < 1 {
		return nil, errors.New("checkpoint replay: nothing captured")
	}
	sp.add("checkpoint.write", parent, t0, time.Now())
	out := map[string]float64{
		"checkpoint.bytes":    float64(b1-b0) / float64(n1-n0),
		"checkpoint.write_ms": (s1 - s0) / float64(n1-n0) * 1000,
	}
	id := sp.open("checkpoint.decode", parent, time.Now())
	var ms []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := core.LoadCheckpoint(path, spec); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	sp.close(id, time.Now())
	out["checkpoint.decode_ms"] = median(ms)
	return out, nil
}

// journalReplay appends records carrying rep to a fresh runner journal
// and returns the median milliseconds per Append (each one fsyncs).
func journalReplay(rep *stats.Report, dir string, sp *spanLog, parent int) (float64, error) {
	path := filepath.Join(dir, "replay-journal.jsonl")
	defer os.Remove(path)
	j, err := runner.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	res, err := json.Marshal(rep)
	if err != nil {
		return 0, err
	}
	id := sp.open("replay.journal", parent, time.Now())
	var ms []float64
	for i := 0; i < 20; i++ {
		rec := &runner.Record{ID: fmt.Sprintf("p%d", i), SpecHash: "simbench", Status: runner.StatusOK, Attempts: 1, Result: res}
		t := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return 0, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	sp.close(id, time.Now())
	return median(ms), j.Close()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
