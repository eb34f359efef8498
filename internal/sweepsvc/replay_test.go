package sweepsvc

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// The operations FuzzReplayMatchesLive decodes, one per (op, arg) byte
// pair of its input.
const (
	opSubmit       = iota // submit fuzzJobs[arg]; a second submit of a job rejoins it
	opLease               // worker arg leases any pending point
	opRenew               // worker arg renews the point it last leased
	opReportOK            // worker arg reports the point it last leased done
	opReportFailed        // worker arg reports the point it last leased failed
	opReportSpec          // worker 0 reports spec arg done, leased or not (a duplicate once it is terminal)
	opAdvance             // the clock advances by (arg+1)·4s, past a 10s lease's deadline from 12s on
	numOps
)

// fuzzJobs are the fuzzed jobs' grids, as indexes into four specs. They
// overlap, so later jobs hit the cache, join in-flight points and retry
// failed ones; job 1 has job 0's grid.
var fuzzJobs = [][]int{{0, 1}, {0, 1}, {1, 2}, {0, 2, 3}, {3, 2}}

func fuzzPoint(spec int) JobPoint {
	id := fmt.Sprintf("p%d", spec)
	return JobPoint{ID: id, Spec: specOf(id, spec)}
}

// FuzzReplayMatchesLive: a manager reopened on the ledger rebuilds the
// state the live calls built. After a random sequence of submits,
// rejoins, leases, renewals, reports and clock advances over overlapping
// grids, the ledger is reopened, every lease is expired on both managers,
// and each job must read the same: its status with points, its merged
// bytes and its trace, and every point's trace. What is deliberately not
// journaled is left out: metrics, renewed deadlines, the event logs and
// the cached marks only a rejoin set.
func FuzzReplayMatchesLive(f *testing.F) {
	// Job 0 runs both points, then job 1 submits the same grid: both are
	// cache hits for job 1, and job 0 ran them itself.
	f.Add([]byte{opSubmit, 0, opLease, 0, opReportOK, 0, opLease, 1, opReportOK, 1, opSubmit, 1})
	// Job 2's first member is job 0's pending point: job 2 keeps its own
	// trace, and the point keeps job 0's.
	f.Add([]byte{opSubmit, 0, opSubmit, 2})
	// Failures, a retry under a new job, an expired lease re-issued, a
	// renewal, late and duplicate reports, and a rejoin of a finished job.
	f.Add([]byte{
		opSubmit, 0, opLease, 0, opLease, 1, opReportFailed, 0, opAdvance, 3,
		opLease, 2, opRenew, 2, opSubmit, 3, opReportSpec, 1, opReportOK, 1,
		opLease, 0, opReportOK, 0, opSubmit, 0, opLease, 1, opAdvance, 1,
		opRenew, 1, opReportSpec, 2, opReportSpec, 3, opSubmit, 4, opSubmit, 1,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 128 {
			in = in[:128]
		}
		clock := newFakeClock()
		ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
		live, err := NewManager(ManagerOptions{LedgerPath: ledger, LeaseTTL: 10 * time.Second, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()

		var (
			jobs     []string              // in first-submit order
			rejoined = map[string][]bool{} // per job: members a rejoin marked cached
			held     [3]string             // per worker: the hash it last leased
			ops      []string              // the decoded sequence, for failure messages
			workers  = [3]string{"w0", "w1", "w2"}
		)
		for i := 0; i+1 < len(in); i += 2 {
			op, arg := int(in[i])%numOps, int(in[i+1])
			switch op {
			case opSubmit:
				k := arg % len(fuzzJobs)
				id := fmt.Sprintf("j%d", k)
				req := &SubmitRequest{JobID: id}
				for _, s := range fuzzJobs[k] {
					req.Points = append(req.Points, fuzzPoint(s))
				}
				if marks, ok := rejoined[id]; ok {
					st, err := live.JobStatus(id, true)
					if err != nil {
						t.Fatal(err)
					}
					for m, ps := range st.Points {
						marks[m] = marks[m] || ps.Status == PointDone && !ps.Cached
					}
				} else {
					jobs = append(jobs, id)
					rejoined[id] = make([]bool, len(req.Points))
				}
				if _, err := live.Submit(req); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, "submit "+id)
			case opLease:
				w := arg % len(workers)
				if lr := live.Lease(workers[w], ""); lr.Point != nil {
					held[w] = lr.Point.Hash()
				}
				ops = append(ops, "lease "+workers[w])
			case opRenew:
				w := arg % len(workers)
				_, _ = live.Renew(workers[w], held[w], nil) // ErrLeaseLost is a valid outcome
				ops = append(ops, "renew "+workers[w])
			case opReportOK, opReportFailed, opReportSpec:
				w, hash := arg%len(workers), held[arg%len(workers)]
				if op == opReportSpec {
					jp := fuzzPoint(arg % 4)
					w, hash = 0, jp.Hash()
				}
				if hash == "" {
					continue
				}
				rec := okRecord("", hash, map[string]string{"hash": hash})
				if op == opReportFailed {
					rec = &runner.Record{SpecHash: hash, Status: runner.StatusFailed, Attempts: 1, Class: runner.ClassPanic, Error: "boom"}
				}
				_, _ = live.Report(workers[w], hash, rec, nil) // an unknown hash is a valid refusal
				ops = append(ops, fmt.Sprintf("report %s %s %.6s", workers[w], rec.Status, hash))
			case opAdvance:
				d := time.Duration(arg%4+1) * 4 * time.Second
				clock.Advance(d)
				ops = append(ops, fmt.Sprintf("advance %v", d))
			}
		}

		reopened, err := NewManager(ManagerOptions{LedgerPath: ledger, LeaseTTL: 10 * time.Second, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		clock.Advance(11 * time.Second) // past every lease and renewal
		live.ExpireLeases()
		reopened.ExpireLeases()

		for _, id := range jobs {
			want, err := live.JobStatus(id, true)
			if err != nil {
				t.Fatal(err)
			}
			for m, marked := range rejoined[id] {
				if marked && want.Points[m].Cached {
					want.Points[m].Cached = false
					want.Cached--
				}
			}
			got, err := reopened.JobStatus(id, true)
			if err != nil {
				t.Fatalf("after %v: job %s lost on reopen: %v", ops, id, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("after %v: job %s status\n live:     %+v\n reopened: %+v", ops, id, want, got)
			}
			if got, want := mergedOf(t, reopened, id), mergedOf(t, live, id); !bytes.Equal(got, want) {
				t.Errorf("after %v: job %s merged bytes\n live:     %s\n reopened: %s", ops, id, want, got)
			}
			if got, want := reopened.jobs[id].trace, live.jobs[id].trace; got != want {
				t.Errorf("after %v: job %s trace: live %+v, reopened %+v", ops, id, want, got)
			}
		}
		if len(reopened.points) != len(live.points) {
			t.Errorf("after %v: %d points live, %d reopened", ops, len(live.points), len(reopened.points))
		}
		for hash, p := range live.points {
			var got obs.SpanContext
			if q := reopened.points[hash]; q != nil {
				got = q.trace
			}
			if got != p.trace {
				t.Errorf("after %v: point %s trace: live %+v, reopened %+v", ops, p.id, p.trace, got)
			}
		}
	})
}

func mergedOf(t *testing.T, m *Manager, job string) []byte {
	t.Helper()
	res, err := m.Merged(job)
	if err != nil {
		t.Fatal(err)
	}
	return mergedBytes(t, res.Points)
}
