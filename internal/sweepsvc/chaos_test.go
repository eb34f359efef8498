package sweepsvc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/runner"
)

// The in-process chaos harness: a sweepd (Manager+Server over a durable
// ledger), three workers, and a seeded fault-injecting transport between
// them. Mid-sweep one worker is killed while holding a lease and the
// server is killed and restarted over the same ledger. The invariant under
// all of it: the merged results are byte-identical to a serial local
// runner.Run over the same grid, and the ledger records each point's
// terminal state exactly once.

// chaosSpec is a synthetic, deterministic point spec: Value depends only
// on X, so any worker, any attempt, any replica computes the same result.
type chaosSpec struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
	X    int    `json:"x"`
	Fail bool   `json:"fail,omitempty"`
}

type chaosResult struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

// chaosRun is the Point.Run both the serial baseline and the workers use.
// The sleep makes points long enough for kills to land mid-run; it does
// not affect the result bytes.
func chaosRun(sp chaosSpec, delay time.Duration) func(ctx context.Context, att runner.Attempt) (any, error) {
	return func(ctx context.Context, att runner.Attempt) (any, error) {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
		if sp.Fail {
			return nil, fmt.Errorf("chaos: %s is wired to fail", sp.Name)
		}
		return &chaosResult{Name: sp.Name, Value: sp.X*sp.X*7 + 1}, nil
	}
}

func chaosGrid(n int) []JobPoint {
	pts := make([]JobPoint, 0, n)
	for i := 0; i < n; i++ {
		sp := chaosSpec{Kind: "chaos", Name: fmt.Sprintf("pt-%02d", i), X: i, Fail: i == n-1}
		raw, _ := json.Marshal(sp)
		pts = append(pts, JobPoint{ID: sp.Name, Spec: raw})
	}
	return pts
}

func buildChaosPoint(delay time.Duration) func(jp *JobPoint) (runner.Point, error) {
	return func(jp *JobPoint) (runner.Point, error) {
		var sp chaosSpec
		if err := json.Unmarshal(jp.Spec, &sp); err != nil {
			return runner.Point{}, err
		}
		return runner.Point{ID: jp.ID, Spec: json.RawMessage(jp.Spec), Run: chaosRun(sp, delay)}, nil
	}
}

// serialBaseline runs the grid through runner.Run locally and returns the
// canonical merged bytes.
func serialBaseline(t *testing.T, grid []JobPoint, delay time.Duration) []byte {
	t.Helper()
	build := buildChaosPoint(delay)
	pts := make([]runner.Point, 0, len(grid))
	for i := range grid {
		pt, err := build(&grid[i])
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	sum, err := runner.Run(context.Background(), pts, runner.Options{
		Workers: 1, PointTimeout: 5 * time.Second, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMerged(&buf, MergedFromRecords(sum.Records)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chaosServer is a restartable sweepd: kill() drops every client
// connection and closes the ledger; start() replays the same ledger into a
// fresh Manager on a fresh listener. addr is what the rewriteTransport
// routes to, so clients and workers follow the server across restarts.
type chaosServer struct {
	t      *testing.T
	ledger string
	ttl    time.Duration

	addr atomic.Value // host:port

	mu  sync.Mutex
	m   *Manager
	srv *httptest.Server
}

func (cs *chaosServer) start() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	m, err := NewManager(ManagerOptions{
		LedgerPath: cs.ledger,
		LeaseTTL:   cs.ttl,
		Logger:     testLogger(cs.t).With("component", "sweepd"),
	})
	if err != nil {
		cs.t.Fatalf("chaos server start: %v", err)
	}
	srv := httptest.NewServer(NewServer(m).Handler())
	u, _ := url.Parse(srv.URL)
	cs.m, cs.srv = m, srv
	cs.addr.Store(u.Host)
	cs.t.Logf("chaos: sweepd up at %s", u.Host)
}

func (cs *chaosServer) kill() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.srv.CloseClientConnections()
	cs.srv.Close()
	cs.m.Close()
	cs.t.Logf("chaos: sweepd killed")
}

func (cs *chaosServer) restart() {
	cs.kill()
	cs.start()
}

// expireLoop runs lease expiry against whichever manager is current.
func (cs *chaosServer) expireLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			cs.mu.Lock()
			cs.m.ExpireLeases()
			cs.mu.Unlock()
		}
	}
}

func (cs *chaosServer) snapshotMetrics() Metrics {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.m.MetricsSnapshot()
}

func (cs *chaosServer) done(job string) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	st, err := cs.m.JobStatus(job, false)
	if err != nil {
		return 0
	}
	return st.Done + st.Failed
}

// rewriteTransport routes every request to the chaos server's *current*
// address — the client-side half of "sweepd restarted on us".
type rewriteTransport struct {
	addr *atomic.Value
}

func (rt *rewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r2 := req.Clone(req.Context())
	r2.URL.Scheme = "http"
	r2.URL.Host = rt.addr.Load().(string)
	r2.Host = ""
	return http.DefaultTransport.RoundTrip(r2)
}

// TestChaosSweep is the chaos harness: seeded RPC faults (delays, drops,
// duplicate deliveries), a worker SIGKILL-equivalent mid-point, and a
// sweepd kill+restart mid-sweep — after which the merged results must be
// byte-identical to the serial baseline, the ledger must hold exactly one
// terminal record per point, and resubmission must be served from cache.
func TestChaosSweep(t *testing.T) {
	const (
		nPoints    = 10
		pointDelay = 40 * time.Millisecond
		leaseTTL   = 1200 * time.Millisecond
	)
	grid := chaosGrid(nPoints)
	want := serialBaseline(t, grid, pointDelay)

	cs := &chaosServer{
		t:      t,
		ledger: filepath.Join(t.TempDir(), "ledger.jsonl"),
		ttl:    leaseTTL,
	}
	cs.start()
	defer cs.kill()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go cs.expireLoop(ctx, 100*time.Millisecond)

	// Every RPC — client and workers alike — crosses the seeded fault
	// transport, then gets routed to the current server address.
	ft := &FaultTransport{
		Base:      &rewriteTransport{addr: &cs.addr},
		DelayProb: 0.3, DelayMax: 10 * time.Millisecond,
		DropProb: 0.1,
		DupProb:  0.1,
		Seed:     0xC0FFEE,
	}
	httpClient := &http.Client{Transport: ft}
	newClient := func() *Client {
		return &Client{Base: "http://sweepd.chaos", HTTP: httpClient,
			OnRetry: func(op string, err error, d time.Duration) {
				t.Logf("client: %s failed (%v); retrying in %v", op, err, d)
			}}
	}

	// Three workers; worker-0 will be killed while holding a lease.
	var wg sync.WaitGroup
	workerCtx := make([]context.CancelFunc, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		wctx, wcancel := context.WithCancel(ctx)
		workerCtx[i] = wcancel
		w := &Worker{
			Client:         newClient(),
			Name:           name,
			Build:          buildChaosPoint(pointDelay),
			HeartbeatEvery: leaseTTL / 4,
			PointTimeout:   5 * time.Second,
			IdleSleep:      25 * time.Millisecond,
			Logger:         testLogger(t),
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(wctx) }()
	}
	defer wg.Wait()
	defer cancel()

	client := newClient()
	if _, err := client.Submit(ctx, &SubmitRequest{JobID: "chaos", Points: grid}); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// The chaos choreography: kill worker-0 once the sweep is moving
	// (leaving its leased point to expire and be re-issued), then kill and
	// restart sweepd once a few points are done.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		time.Sleep(3 * pointDelay)
		workerCtx[0]()
		t.Logf("chaos: worker w0 killed")
		for cs.done("chaos") < nPoints/3 && ctx.Err() == nil {
			time.Sleep(20 * time.Millisecond)
		}
		cs.restart()
	}()

	st, err := client.WaitJob(ctx, "chaos", func(ev Event) {
		if ev.Status == PointPending && ev.Seq > 0 {
			t.Logf("event: %s re-queued (lease expired)", ev.ID)
		} else {
			t.Logf("event: %s %s (worker %s)", ev.ID, ev.Status, ev.Worker)
		}
	})
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	<-chaosDone
	if st.Done != nPoints-1 || st.Failed != 1 {
		t.Fatalf("final status: %+v, want %d done + 1 failed", st, nPoints-1)
	}

	// Invariant 1: merged results are byte-identical to the serial run.
	res, err := client.Results(ctx, "chaos")
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	var got bytes.Buffer
	if err := WriteMerged(&got, res.Points); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("merged results diverge from serial baseline:\n--- serial ---\n%s\n--- chaos ---\n%s", want, got.Bytes())
	}

	// Invariant 2: the ledger holds exactly one terminal record per point,
	// despite duplicate deliveries, the worker kill and the restart.
	terminal := make(map[string]int)
	if err := ReplayLedger(cs.ledger, nil, func(r *LedgerRecord) {
		if r.Type == "done" || r.Type == "failed" {
			terminal[r.Hash]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, jp := range grid {
		if n := terminal[jp.Hash()]; n != 1 {
			t.Errorf("point %s has %d terminal ledger records, want exactly 1", jp.ID, n)
		}
	}
	if len(terminal) != nPoints {
		t.Errorf("ledger has %d terminal hashes, want %d", len(terminal), nPoints)
	}

	// Invariant 3: resubmitting the completed points is served entirely
	// from the content-addressed cache — instantly complete, no re-run.
	okGrid := grid[:nPoints-1] // the wired-to-fail point gets a fresh chance by design
	st2, err := client.Submit(ctx, &SubmitRequest{JobID: "chaos-again", Points: okGrid})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st2.Complete || st2.Cached != len(okGrid) {
		t.Fatalf("resubmit status: %+v, want instant completion with %d cached", st2, len(okGrid))
	}
}

// TestChaosFaultTransportDeterminism: the same seed draws the same RPC
// fault sequence — the property that makes a chaos failure reproducible.
func TestChaosFaultTransportDeterminism(t *testing.T) {
	decisions := func(seed uint64) []string {
		ft := &FaultTransport{DelayProb: 0.3, DropProb: 0.2, DupProb: 0.2, Seed: seed}
		var out []string
		for i := 0; i < 64; i++ {
			d, drop, dup := ft.decide()
			out = append(out, fmt.Sprintf("%v/%v/%v", d, drop, dup))
		}
		return out
	}
	a, b := decisions(7), decisions(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
	c := decisions(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds drew identical fault sequences")
	}
}

// --- Checkpoint takeover chaos: kill a worker mid-point, resume elsewhere ---

// ckChaosSpec is a synthetic long-running "simulation": Cycles steps of a
// deterministic accumulator, checkpointed every ckChaosInterval cycles
// when the runner hands the point a checkpoint path. The final value
// depends only on the cycle count, so a run resumed from any capture is
// byte-identical to an uninterrupted one.
type ckChaosSpec struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Cycles uint64 `json:"cycles"`
}

const ckChaosInterval = 80 // cycles between captures

// ckChaosTracker observes each run attempt: the cycle it started at
// (0 = from scratch, >0 = resumed from a capture) and the furthest cycle
// any attempt reached before dying.
type ckChaosTracker struct {
	mu       sync.Mutex
	starts   []uint64
	maxCycle uint64
}

func (tr *ckChaosTracker) start(c uint64) {
	tr.mu.Lock()
	tr.starts = append(tr.starts, c)
	tr.mu.Unlock()
}

func (tr *ckChaosTracker) reach(c uint64) {
	tr.mu.Lock()
	if c > tr.maxCycle {
		tr.maxCycle = c
	}
	tr.mu.Unlock()
}

func (tr *ckChaosTracker) snapshot() ([]uint64, uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]uint64(nil), tr.starts...), tr.maxCycle
}

// ckChaosRun steps the accumulator, capturing a checkpoint every
// ckChaosInterval cycles and resuming from one when present — the same
// contract core.RestoreAndRun honors for real simulations, scaled down so
// the takeover choreography runs in test time.
func ckChaosRun(sp ckChaosSpec, stepDelay time.Duration, tr *ckChaosTracker) func(ctx context.Context, att runner.Attempt) (any, error) {
	return func(ctx context.Context, att runner.Attempt) (any, error) {
		var cycle, acc uint64
		path := ""
		if att.CheckpointPath != "" {
			path = att.CheckpointPath + ".state.ckpt"
			if meta, payload, err := checkpoint.Read(path); err == nil && meta.SpecHash == sp.Name && len(payload) == 8 {
				cycle = meta.Cycle
				acc = binary.LittleEndian.Uint64(payload)
			}
		}
		if tr != nil {
			tr.start(cycle)
		}
		for ; cycle < sp.Cycles; cycle++ {
			acc = acc*6364136223846793005 + 1442695040888963407
			if stepDelay > 0 {
				time.Sleep(stepDelay)
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if tr != nil {
				tr.reach(cycle + 1)
			}
			if path != "" && (cycle+1)%ckChaosInterval == 0 {
				var payload [8]byte
				binary.LittleEndian.PutUint64(payload[:], acc)
				if err := checkpoint.Write(path, checkpoint.Meta{SpecHash: sp.Name, Cycle: cycle + 1}, payload[:]); err != nil {
					return nil, err
				}
			}
		}
		return &chaosResult{Name: sp.Name, Value: int(acc & 0x7fffffff)}, nil
	}
}

func buildCkChaosPoint(stepDelay time.Duration, tr *ckChaosTracker) func(jp *JobPoint) (runner.Point, error) {
	return func(jp *JobPoint) (runner.Point, error) {
		var sp ckChaosSpec
		if err := json.Unmarshal(jp.Spec, &sp); err != nil {
			return runner.Point{}, err
		}
		return runner.Point{ID: jp.ID, Spec: json.RawMessage(jp.Spec), Run: ckChaosRun(sp, stepDelay, tr)}, nil
	}
}

// TestChaosCheckpointTakeover is the kill-mid-point chaos case for the
// preemptible-sweep tentpole: worker w0 runs a long point, shipping its
// checkpoints with every heartbeat; w0 is killed (SIGKILL-equivalent: its
// context dies, nothing is reported) mid-run; the lease expires and a
// fresh worker w1 — with its own empty checkpoint directory — takes the
// point over. The invariants:
//
//  1. w1 resumes from a shipped capture (start cycle > 0, on an interval
//     boundary), not from scratch;
//  2. the ledger records the takeover as a durable "resume" record whose
//     FromCycle matches the observed resume point;
//  3. the re-simulated cycles (kill point minus resume point) are bounded
//     by the capture cadence, not the length of the run;
//  4. the merged result is byte-identical to a serial local run that never
//     checkpointed at all.
func TestChaosCheckpointTakeover(t *testing.T) {
	const (
		cycles    = 1000
		stepDelay = 2 * time.Millisecond
		leaseTTL  = 600 * time.Millisecond
		heartbeat = 100 * time.Millisecond
	)
	sp := ckChaosSpec{Kind: "ck-chaos", Name: "ck-pt", Cycles: cycles}
	raw, _ := json.Marshal(sp)
	grid := []JobPoint{{ID: sp.Name, Spec: raw}}

	// Serial baseline: same spec, no checkpoint dir, no tracker.
	basePt, err := buildCkChaosPoint(0, nil)(&grid[0])
	if err != nil {
		t.Fatal(err)
	}
	baseSum, err := runner.Run(context.Background(), []runner.Point{basePt}, runner.Options{
		Workers: 1, PointTimeout: 30 * time.Second, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteMerged(&want, MergedFromRecords(baseSum.Records)); err != nil {
		t.Fatal(err)
	}

	cs := &chaosServer{
		t:      t,
		ledger: filepath.Join(t.TempDir(), "ledger.jsonl"),
		ttl:    leaseTTL,
	}
	cs.start()
	defer cs.kill()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go cs.expireLoop(ctx, 50*time.Millisecond)

	httpClient := &http.Client{Transport: &rewriteTransport{addr: &cs.addr}}
	newWorker := func(name string, tr *ckChaosTracker) *Worker {
		return &Worker{
			Client:         &Client{Base: "http://sweepd.chaos", HTTP: httpClient},
			Name:           name,
			Build:          buildCkChaosPoint(stepDelay, tr),
			HeartbeatEvery: heartbeat,
			PointTimeout:   30 * time.Second,
			IdleSleep:      25 * time.Millisecond,
			CheckpointDir:  filepath.Join(t.TempDir(), name+"-ckpts"),
			Logger:         testLogger(t),
		}
	}

	client := &Client{Base: "http://sweepd.chaos", HTTP: httpClient}
	if _, err := client.Submit(ctx, &SubmitRequest{JobID: "ck-chaos", Points: grid}); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Phase 1: w0 runs the point alone until at least one capture has been
	// shipped to sweepd and the run is well past it, then dies.
	tr0 := &ckChaosTracker{}
	w0ctx, w0kill := context.WithCancel(ctx)
	var wg0 sync.WaitGroup
	wg0.Add(1)
	go func() { defer wg0.Done(); newWorker("w0", tr0).Run(w0ctx) }()
	for ctx.Err() == nil {
		_, reached := tr0.snapshot()
		shipped := cs.snapshotMetrics().CheckpointsStored
		if shipped > 0 && reached > cycles/2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	w0kill()
	wg0.Wait()
	_, killCycle := tr0.snapshot()
	t.Logf("chaos: w0 killed at cycle %d with %d checkpoint files shipped",
		killCycle, cs.snapshotMetrics().CheckpointsStored)
	if killCycle >= cycles {
		t.Fatalf("w0 finished the point (cycle %d) before the kill landed; slow the point down", killCycle)
	}

	// Phase 2: w1, with an empty checkpoint dir of its own, takes over.
	tr1 := &ckChaosTracker{}
	var wg1 sync.WaitGroup
	wg1.Add(1)
	w1ctx, w1stop := context.WithCancel(ctx)
	go func() { defer wg1.Done(); newWorker("w1", tr1).Run(w1ctx) }()
	st, err := client.WaitJob(ctx, "ck-chaos", nil)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	w1stop()
	wg1.Wait()
	if st.Done != 1 {
		t.Fatalf("final status: %+v, want 1 done", st)
	}

	// Invariant 1: the takeover resumed mid-run on a capture boundary.
	starts, _ := tr1.snapshot()
	if len(starts) == 0 {
		t.Fatal("w1 never ran the point")
	}
	resumeCycle := starts[0]
	if resumeCycle == 0 {
		t.Error("takeover restarted from cycle 0 — checkpoints were not migrated")
	}
	if resumeCycle%ckChaosInterval != 0 {
		t.Errorf("resume cycle %d is not a capture boundary (interval %d)", resumeCycle, ckChaosInterval)
	}

	// Invariant 2: the ledger durably recorded resume-not-restart.
	var resumes []LedgerRecord
	if err := ReplayLedger(cs.ledger, nil, func(r *LedgerRecord) {
		if r.Type == "resume" {
			resumes = append(resumes, *r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(resumes) == 0 {
		t.Fatal("no resume record in the ledger")
	}
	last := resumes[len(resumes)-1]
	if last.Hash != grid[0].Hash() || last.Worker != "w1" {
		t.Errorf("resume record %+v, want hash %s worker w1", last, grid[0].Hash())
	}
	if last.FromCycle != resumeCycle {
		t.Errorf("ledger resume FromCycle %d != observed resume cycle %d", last.FromCycle, resumeCycle)
	}
	if mt := cs.snapshotMetrics(); mt.Takeovers == 0 {
		t.Error("manager Takeovers counter is zero after a takeover")
	}

	// Invariant 3: bounded rework. The freshest shippable capture trails
	// the kill point by at most one interval plus however far the run got
	// between the last heartbeat and the kill — generously, a few beats'
	// worth of cycles. Never anywhere near re-running the whole point.
	cyclesPerBeat := uint64(heartbeat/stepDelay) + 1
	if bound := uint64(ckChaosInterval) + 3*cyclesPerBeat; killCycle-resumeCycle > bound {
		t.Errorf("takeover re-simulated %d cycles (kill %d, resume %d), want <= %d",
			killCycle-resumeCycle, killCycle, resumeCycle, bound)
	}

	// Invariant 4: byte-identity with the serial, never-checkpointed run.
	res, err := client.Results(ctx, "ck-chaos")
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	var got bytes.Buffer
	if err := WriteMerged(&got, res.Points); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("merged results diverge from serial baseline:\n--- serial ---\n%s\n--- chaos ---\n%s", want.Bytes(), got.Bytes())
	}
}
