package sweepsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Server is sweepd's HTTP surface over a Manager. Handler routes:
//
//	POST /api/v1/jobs              submit a point grid
//	GET  /api/v1/jobs/{id}         job status (?points=1 for per-point states)
//	GET  /api/v1/jobs/{id}/events  JSONL event stream (?from=N resumes)
//	GET  /api/v1/jobs/{id}/results merged results (canonical, sorted)
//	POST /api/v1/lease             worker: pull one point
//	POST /api/v1/renew             worker: heartbeat (410 = lease lost)
//	POST /api/v1/report            worker: terminal record (idempotent)
//	GET  /healthz                  liveness
//	GET  /metrics                  Prometheus page (service + per-worker self metrics)
type Server struct {
	m *Manager

	selfMu sync.Mutex
	selves map[string]*telemetry.SelfSample // latest self-sample per worker
}

// NewServer wraps the manager.
func NewServer(m *Manager) *Server {
	return &Server{m: m, selves: make(map[string]*telemetry.SelfSample)}
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("POST /api/v1/lease", s.handleLease)
	mux.HandleFunc("POST /api/v1/renew", s.handleRenew)
	mux.HandleFunc("POST /api/v1/report", s.handleReport)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Live profiling of a long-running sweepd: `go tool pprof
	// http://host:8044/debug/pprof/profile` against the production daemon.
	telemetry.MountPprof(mux)
	return mux
}

// ExpireLoop re-queues expired leases every manager tick (an eighth of
// the lease TTL, at most 500ms) until ctx ends. sweepd runs it alongside
// the HTTP server so dead workers' points are re-issued even when no live
// worker is polling.
func (s *Server) ExpireLoop(ctx context.Context) {
	t := time.NewTicker(s.m.tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.m.ExpireLeases()
		}
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decode(w, r, &req) {
		return
	}
	st, err := s.m.Submit(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.JobStatus(r.PathValue("id"), r.URL.Query().Get("points") != "")
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, st)
}

// handleEvents streams the job's per-point transitions as JSONL, one
// event per line, flushed as they happen; the stream ends once the job is
// complete and fully delivered. ?from=N resumes after a dropped
// connection (seq numbers restart after a sweepd restart — watchers
// reconcile on (hash, status)).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from, _ := strconv.Atoi(r.URL.Query().Get("from"))
	if _, err := s.m.JobStatus(id, false); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, err := s.m.Events(id, from)
		if err != nil {
			return
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from += len(evs)
		if fl != nil {
			fl.Flush()
		}
		st, err := s.m.JobStatus(id, false)
		if err != nil || st.Complete {
			return
		}
		if len(evs) == 0 {
			s.m.WaitChange(r.Context())
			if r.Context().Err() != nil {
				return
			}
		}
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	res, err := s.m.Merged(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "lease: worker name required")
		return
	}
	writeJSON(w, s.m.Lease(req.Worker, req.Job))
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Self != nil {
		s.selfMu.Lock()
		s.selves[req.Worker] = req.Self
		s.selfMu.Unlock()
	}
	resp, err := s.m.Renew(req.Worker, req.Hash, req.Checkpoints)
	if err != nil {
		httpError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !decode(w, r, &req) {
		return
	}
	resp, err := s.m.Report(req.Worker, req.Hash, req.Record, req.Trace)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, resp)
}

// handleMetrics renders the service counters and, cc-metric-collector
// `self`-collector style, the latest self-monitoring sample from every
// worker that has heartbeat — one fleet, one exposition page.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mt := s.m.MetricsSnapshot()
	var sb strings.Builder
	telemetry.PromBuildInfo(&sb, "sweepd_build_info")
	c := func(name string, v uint64) {
		fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	c("sweepd_jobs_total", mt.Jobs)
	c("sweepd_points_registered_total", mt.PointsRegistered)
	c("sweepd_leases_issued_total", mt.LeasesIssued)
	c("sweepd_leases_renewed_total", mt.LeasesRenewed)
	c("sweepd_leases_expired_total", mt.LeasesExpired)
	c("sweepd_reports_accepted_total", mt.ReportsAccepted)
	c("sweepd_reports_duplicate_total", mt.ReportsDuplicate)
	c("sweepd_cache_hits_total", mt.CacheHits)
	c("sweepd_cache_misses_total", mt.CacheMisses)
	c("sweepd_replay_warnings_total", mt.ReplayWarnings)
	c("sweepd_ledger_errors_total", mt.LedgerErrors)
	c("sweepd_takeovers_total", mt.Takeovers)
	c("sweepd_checkpoints_stored_total", mt.CheckpointsStored)
	c("sweepd_checkpoint_bytes_total", mt.CheckpointBytes)
	c("sweepd_checkpoint_rejects_total", mt.CheckpointRejects)

	s.selfMu.Lock()
	workers := make([]string, 0, len(s.selves))
	for wname := range s.selves {
		workers = append(workers, wname)
	}
	sort.Strings(workers)
	for _, wname := range workers {
		telemetry.PromSelf(&sb, "sweepd_worker_", s.selves[wname], map[string]string{"worker": wname})
	}
	s.selfMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, sb.String())
}
