package sweepsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Client talks to sweepd. Every call retries transparently on transport
// errors and 5xx with capped backoff — the protocol is designed so each
// request is idempotent (leases are sticky per worker, reports dedupe by
// hash), which is what makes blind retry safe across dropped RPCs and
// sweepd restarts.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8044".
	Base string
	// HTTP is the transport (nil = http.DefaultClient). The chaos harness
	// installs a fault-injecting RoundTripper here.
	HTTP *http.Client
	// MaxElapsed bounds how long one call keeps retrying before giving up
	// (0 = 2 minutes; covers a sweepd restart).
	MaxElapsed time.Duration
	// OnRetry observes call retries (nil = silent).
	OnRetry func(op string, err error, delay time.Duration)
}

type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("http %d: %s", e.code, e.msg) }

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// call POSTs (or GETs when in == nil and method says so) JSON and decodes
// the JSON response into out, retrying transient failures.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	maxElapsed := c.MaxElapsed
	if maxElapsed <= 0 {
		maxElapsed = 2 * time.Minute
	}
	deadline := time.Now().Add(maxElapsed)
	delay := 100 * time.Millisecond
	var lastErr error
	for {
		err := c.once(ctx, method, path, in, out)
		if err == nil {
			return nil
		}
		var he *httpStatusError
		if errors.As(err, &he) {
			switch {
			case he.code == http.StatusGone:
				// Lease lost: the server has spoken, so never retried.
				return ErrLeaseLost
			case he.code >= 400 && he.code < 500:
				return err // the request itself is wrong; retry can't fix it
			}
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sweepsvc: %s %s: retries exhausted: %w", method, path, lastErr)
		}
		if c.OnRetry != nil {
			c.OnRetry(method+" "+path, err, delay)
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		if delay *= 2; delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
}

func (c *Client) once(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var em struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(b))
		if json.Unmarshal(b, &em) == nil && em.Error != "" {
			msg = em.Error
		}
		return &httpStatusError{code: resp.StatusCode, msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit submits a grid and returns the job's initial status.
func (c *Client) Submit(ctx context.Context, req *SubmitRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.call(ctx, http.MethodPost, "/api/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// JobStatus fetches a job's summary.
func (c *Client) JobStatus(ctx context.Context, id string, withPoints bool) (*JobStatus, error) {
	path := "/api/v1/jobs/" + id
	if withPoints {
		path += "?points=1"
	}
	var st JobStatus
	if err := c.call(ctx, http.MethodGet, path, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Results fetches a job's merged results.
func (c *Client) Results(ctx context.Context, id string) (*MergedResults, error) {
	var res MergedResults
	if err := c.call(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/results", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Lease pulls one point for req.Worker (from req.Job's points only, when
// set).
func (c *Client) Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := c.call(ctx, http.MethodPost, "/api/v1/lease", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Renew heartbeats worker's lease on hash. Returns ErrLeaseLost when the
// lease is gone (never retried: the server has spoken).
func (c *Client) Renew(ctx context.Context, req *RenewRequest) (*RenewResponse, error) {
	var resp RenewResponse
	if err := c.call(ctx, http.MethodPost, "/api/v1/renew", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Report submits a terminal record (idempotent by hash). The request may
// carry the worker's run-span context so the server parents its "report"
// span under the worker's run.
func (c *Client) Report(ctx context.Context, req *ReportRequest) (*ReportResponse, error) {
	var resp ReportResponse
	if err := c.call(ctx, http.MethodPost, "/api/v1/report", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// WaitJob blocks until the job completes, invoking onEvent for every
// per-point transition. It prefers the streaming events endpoint and falls
// back to reconnecting/polling when the connection drops (a sweepd restart
// mid-sweep resets event seq numbers; duplicated progress callbacks are
// possible and harmless — completion is decided by job status, never by
// the stream).
func (c *Client) WaitJob(ctx context.Context, id string, onEvent func(Event)) (*JobStatus, error) {
	from := 0
	for {
		n, streamErr := c.streamEvents(ctx, id, from, onEvent)
		from += n
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		st, err := c.JobStatus(ctx, id, false)
		if err != nil {
			return nil, err
		}
		if st.Complete {
			return st, nil
		}
		if streamErr != nil {
			// Stream broken mid-job (server restarting, transport fault):
			// back off, then reconnect from the start of the rebuilt log.
			from = 0
			t := time.NewTimer(500 * time.Millisecond)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
	}
}

// streamEvents consumes the events stream from seq `from`, returning how
// many events were delivered and the terminating error (nil = server
// closed the stream cleanly, i.e. the job completed).
func (c *Client) streamEvents(ctx context.Context, id string, from int, onEvent func(Event)) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/v1/jobs/%s/events?from=%d", strings.TrimRight(c.Base, "/"), id, from), nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("sweepsvc: events: http %d", resp.StatusCode)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		n++
		if onEvent != nil {
			onEvent(ev)
		}
	}
	return n, sc.Err()
}

// WriteMerged writes merged results in the canonical byte form: JobID and
// per-point Provenance and Record stripped, points sorted by ID, indented
// JSON. Two sweeps over the same grid — serial local, chaotic distributed
// — must produce byte-identical files; provenance (which worker ran what,
// on which host) and wall times are inherently run-specific, so they ride
// the /results API but never the merged bytes.
func WriteMerged(w io.Writer, points []MergedPoint) error {
	pts := append([]MergedPoint(nil), points...)
	for i := range pts {
		pts[i].Provenance, pts[i].Record = nil, nil
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].ID < pts[b].ID })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&MergedResults{Points: pts})
}
