package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// profile buckets: self time by simulator package, and inclusive time by
// pipeline stage of internal/cpu. Every share is a percentage of all
// samples taken during the profiled call.
var (
	profPackages = []string{"core", "cpu", "bpred", "memsys", "cache", "coherence", "mesh", "tlb", "sched", "workload", "gc", "other"}
	profStages   = []string{"fetch", "dispatch", "issue", "retire", "nextevent"}
)

// profileShares decodes a runtime/pprof CPU profile and returns the prof.*
// shares plus the number of samples.
//
// A sample's package is that of its innermost internal/... frame, so a
// runtime helper (map access, allocation) counts for the package that
// called it; samples under the garbage collector's workers or assists
// count as gc. A sample's stage is the innermost cpu frame that belongs
// to a pipeline stage, so a cache access made by the issue stage counts
// for issue as well as for its own package.
func profileShares(gz []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, st := range stacks {
		total += st.n
		counts["prof."+packageOf(st.frames)] += st.n
		if s := stageOf(st.frames); s != "" {
			counts["prof.cpu."+s] += st.n
		}
	}
	out := map[string]float64{}
	for _, p := range profPackages {
		out["prof."+p] = 0
	}
	for _, s := range profStages {
		out["prof.cpu."+s] = 0
	}
	if total == 0 {
		return out, 0, nil
	}
	for k, n := range counts {
		out[k] = float64(n) / float64(total) * 100
	}
	return out, total, nil
}

const internalPrefix = "repro/internal/"

func packageOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") ||
			strings.HasPrefix(f, "runtime.bgsweep") || strings.HasPrefix(f, "runtime.bgscavenge") {
			return "gc"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "other" // the benchmark's own stream wrapper
		}
		if !strings.HasPrefix(f, internalPrefix) {
			continue
		}
		pkg := f[len(internalPrefix):]
		if i := strings.Index(pkg, "."); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "workload", "workload/oltp", "workload/dss", "db":
			return "workload"
		case "core", "cpu", "bpred", "memsys", "cache", "coherence", "mesh", "tlb", "sched":
			return pkg
		}
		return "other"
	}
	return "other"
}

func stageOf(frames []string) string {
	const cpuPrefix = internalPrefix + "cpu."
	for _, f := range frames {
		if !strings.HasPrefix(f, cpuPrefix) {
			continue
		}
		m := f[strings.LastIndex(f, ".")+1:]
		switch {
		case strings.Contains(m, "NextEvent") || strings.Contains(m, "nextEvent") ||
			m == "FastForward" || m == "steadyStall" || m == "entryIssueEvent":
			return "nextevent"
		case strings.HasPrefix(m, "fetch"):
			return "fetch"
		case strings.HasPrefix(m, "dispatch"):
			return "dispatch"
		case strings.HasPrefix(m, "issue") || m == "readyBound" || m == "srcsReady" || m == "prodReady":
			return "issue"
		case strings.HasPrefix(m, "retire") || m == "tryRetire" || m == "drainWbuf" || m == "rollback":
			return "retire"
		}
	}
	return ""
}

// stack is one profile sample: function names from leaf to root.
type stack struct {
	frames []string
	n      int64
}

var errProfile = errors.New("malformed profile")

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes. Only samples, locations, functions and the string table are
// decoded.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location -> function ids, inner first
		fnName  = map[uint64]uint64{}   // function -> string index
	)
	err = pbFields(raw, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := pbFields(data, func(num, wt int, v uint64, data []byte) error {
				vals, err := pbUints(wt, v, data)
				switch num {
				case 1:
					s.locs = append(s.locs, vals...)
				case 2:
					if len(vals) > 0 && s.n == 0 {
						s.n = int64(vals[0])
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return pbFields(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{n: s.n}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pbFields calls fn for each field of a protobuf message: v holds varint
// and fixed-width values, data the bytes of length-delimited ones.
func pbFields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints returns a repeated integer field's values, packed or not.
func pbUints(wt int, v uint64, data []byte) ([]uint64, error) {
	if wt != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
