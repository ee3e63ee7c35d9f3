package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"etap/internal/apps/all"
	"etap/internal/exp"
	"etap/internal/obs/trace"
	"etap/internal/version"
)

// Server binds a Manager to its HTTP surface. Construct it with New,
// mount Handler somewhere, and Close it on shutdown.
type Server struct {
	m   *Manager
	cfg Config
	mux *http.ServeMux
}

// New builds the manager and its routes.
func New(cfg Config) (*Server, error) {
	m, err := NewManager(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{m: m, cfg: m.cfg}
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(name, h))
	}
	route("GET /api/v1/healthz", "healthz", s.handleHealthz)
	route("GET /api/v1/experiments", "experiments", s.handleExperiments)
	route("GET /api/v1/benchmarks", "benchmarks", s.handleBenchmarks)
	route("POST /api/v1/jobs", "submit", s.handleSubmit)
	route("GET /api/v1/jobs", "jobs", s.handleList)
	route("GET /api/v1/jobs/{id}", "job", s.handleStatus)
	route("DELETE /api/v1/jobs/{id}", "cancel", s.handleCancel)
	route("GET /api/v1/jobs/{id}/report", "report", s.handleReport)
	route("GET /api/v1/jobs/{id}/events", "events", s.handleEvents)
	route("GET /metrics", "metrics", m.cfg.Metrics.Handler().ServeHTTP)
	route("GET /traces", "traces", s.handleTraces)
	route("GET /traces/{id}", "trace", s.handleTrace)
	if m.cfg.EnablePprof {
		// Explicit mounts — importing net/http/pprof also registers on
		// http.DefaultServeMux, but this mux never exposes that.
		route("GET /debug/pprof/", "pprof", pprof.Index)
		route("GET /debug/pprof/cmdline", "pprof", pprof.Cmdline)
		route("GET /debug/pprof/profile", "pprof", pprof.Profile)
		route("GET /debug/pprof/symbol", "pprof", pprof.Symbol)
		route("GET /debug/pprof/trace", "pprof", pprof.Trace)
	}
	route("/", "notfound", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "no such endpoint: %s %s", r.Method, r.URL.Path)
	})
	s.mux = mux
	return s, nil
}

// Handler is the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the job manager (for embedding servers that submit
// jobs programmatically).
func (s *Server) Manager() *Manager { return s.m }

// Close shuts the manager down (see Manager.Close).
func (s *Server) Close() error { return s.m.Close() }

// errorBody is the structured error envelope of every non-2xx JSON
// response.
type errorBody struct {
	Error RequestError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client is gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: *badRequest(code, format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	payload := map[string]any{
		"status":         "ok",
		"version":        version.Get(),
		"uptime_seconds": s.m.Uptime().Seconds(),
		"workers":        s.cfg.Workers,
		"workers_busy":   s.m.BusyWorkers(),
		"queue":          s.cfg.QueueDepth,
		"queue_depth":    s.m.QueueLen(),
		"jobs":           s.m.Counts(),
		"jobs_stored":    s.m.StoredJobs(),
		"max_jobs":       s.cfg.MaxJobs,
		"evicted_jobs":   s.m.EvictedJobs(),
	}
	if s.cfg.Stats != nil {
		for k, v := range s.cfg.Stats() {
			payload[k] = v
		}
	}
	writeJSON(w, http.StatusOK, payload)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type item struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []item
	for _, e := range exp.Experiments() {
		out = append(out, item{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type item struct {
		Name     string `json:"name"`
		Title    string `json:"title"`
		Fidelity string `json:"fidelity"`
	}
	var out []item
	for _, a := range all.Apps() {
		out = append(out, item{Name: a.Name(), Title: a.Title(), Fidelity: a.FidelityName()})
	}
	writeJSON(w, http.StatusOK, out)
}

// submitResponse acknowledges a queued job with the links a client
// needs next.
type submitResponse struct {
	Snapshot
	Links map[string]string `json:"links"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_body", "reading request body: %v", err)
		return
	}
	req, err := ParseSubmitRequest(body)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	job, err := s.m.Submit(r.Context(), req)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "queue_full",
			"all %d queue slots are taken; retry later", s.cfg.QueueDepth)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is shutting down")
		return
	case err != nil:
		writeRequestError(w, err)
		return
	}
	base := "/api/v1/jobs/" + job.ID
	writeJSON(w, http.StatusAccepted, submitResponse{
		Snapshot: job.accepted,
		Links: map[string]string{
			"self":   base,
			"report": base + "/report",
			"events": base + "/events",
		},
	})
}

// writeRequestError maps a submit-time error to 400, keeping the
// structured code when the error carries one.
func writeRequestError(w http.ResponseWriter, err error) {
	var re *RequestError
	if errors.As(err, &re) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: *re})
		return
	}
	writeError(w, http.StatusBadRequest, "invalid_job", "%v", err)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.List()
	if jobs == nil {
		jobs = []Snapshot{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

// handleTraces lists the flight recorder's completed traces, newest
// first. The summaries carry the trace IDs that job snapshots, SSE
// payloads, logs and exemplars reference.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := s.m.cfg.Tracer
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing_disabled", "no tracer is configured")
		return
	}
	traces := tr.Traces()
	if traces == nil {
		traces = []trace.Summary{}
	}
	writeJSON(w, http.StatusOK, traces)
}

// handleTrace serves one completed trace's full span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.m.cfg.Tracer
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing_disabled", "no tracer is configured")
		return
	}
	id := r.PathValue("id")
	td := tr.Get(id)
	if td == nil {
		writeError(w, http.StatusNotFound, "no_such_trace",
			"no completed trace %q in the flight recorder (still running, evicted, or never existed)", id)
		return
	}
	writeJSON(w, http.StatusOK, td)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no_such_job", "no job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	cancelled, err := s.m.Cancel(j.ID)
	if err != nil {
		writeError(w, http.StatusNotFound, "no_such_job", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "cancelled": cancelled})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	snap := j.snapshot()
	if !snap.Report {
		switch snap.State {
		case StateFailed:
			writeError(w, http.StatusConflict, "job_failed", "job failed: %s", snap.Error)
		case StateCancelled:
			writeError(w, http.StatusConflict, "job_cancelled", "job was cancelled before any aggregates existed")
		default:
			writeError(w, http.StatusConflict, "not_ready", "job is %s; no report yet", snap.State)
		}
		return
	}
	w.Header().Set("X-Etap-Job-State", string(snap.State))
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json":
		// The payload is exactly etap.WriteReportsJSON of the
		// one-report batch — byte-compatible with etexp artifacts and
		// with a direct Experiment.Run of the same options.
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode([]json.RawMessage{snap.reportJSON}) //nolint:errcheck
	case "csv":
		if snap.report == nil {
			writeError(w, http.StatusConflict, "not_renderable", "persisted report cannot render as csv")
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		exp.WriteCSV(w, []*exp.Report{snap.report}) //nolint:errcheck
	case "text":
		if snap.report == nil {
			writeError(w, http.StatusConflict, "not_renderable", "persisted report cannot render as text")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.report.RenderText()+"\n") //nolint:errcheck
	default:
		writeError(w, http.StatusBadRequest, "bad_format", "unknown format %q (have json, csv, text)", format)
	}
}

// keepaliveInterval paces SSE comment lines so idle streams (a queued
// job waiting for a worker) keep intermediaries from timing out.
const keepaliveInterval = 15 * time.Second

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	cancelOnDisconnect := false
	switch r.URL.Query().Get("cancel") {
	case "1", "true", "on-disconnect":
		cancelOnDisconnect = true
	}

	replay, ch, unsub := j.Subscribe()
	defer unsub()
	sw, err := newSSEWriter(w)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "no_streaming", "%v", err)
		return
	}
	// disconnected handles a dead client: propagate to the campaign when
	// this stream owns it, then end the handler.
	disconnected := func() {
		if cancelOnDisconnect {
			s.m.Cancel(j.ID) //nolint:errcheck // the job may have finished already
		}
	}
	lastSent := -1
	for _, ev := range replay {
		if sw.event(ev) != nil {
			disconnected()
			return
		}
		lastSent = ev.Seq
	}
	if ch == nil {
		return // finished job: the replay ended with its terminal event
	}
	ticker := time.NewTicker(keepaliveInterval)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Job is done. A subscriber that lagged hard enough may
				// have had the terminal state event dropped from its
				// channel; the contract is that the stream always ends
				// with it, so re-deliver the job's final event if this
				// client never saw it.
				if ev, ok := j.lastEvent(); ok && ev.Seq > lastSent {
					sw.event(ev) //nolint:errcheck // stream ends either way
				}
				return
			}
			if sw.event(ev) != nil {
				disconnected()
				return
			}
			lastSent = ev.Seq
		case <-ctx.Done():
			disconnected()
			return
		case <-ticker.C:
			if sw.comment("keepalive") != nil {
				disconnected()
				return
			}
		}
	}
}
