package server

import (
	"context"
	"log/slog"

	"etap/internal/obs"
)

// serverMetrics is the service's metric set, resolved once per Manager
// against the configured registry. Families are registered idempotently,
// so many managers (tests, embedded servers) may share one registry —
// counters then aggregate process-wide, which is what a scraper wants.
type serverMetrics struct {
	httpRequests *obs.CounterVec   // route, code
	httpDuration *obs.HistogramVec // route
	queueDepth   *obs.Gauge
	workersBusy  *obs.Gauge
	sseSubs      *obs.Gauge
	jobsTotal    *obs.CounterVec // state transitions
	jobsStored   *obs.Gauge
	jobsEvicted  *obs.Counter
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		httpRequests: r.CounterVec("etap_http_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", "code"),
		httpDuration: r.HistogramVec("etap_http_request_seconds",
			"HTTP request duration in seconds, by route pattern.",
			obs.DefBuckets, "route"),
		queueDepth: r.Gauge("etap_server_queue_depth",
			"Jobs waiting for a worker slot."),
		workersBusy: r.Gauge("etap_server_workers_busy",
			"Workers currently executing a job."),
		sseSubs: r.Gauge("etap_server_sse_subscribers",
			"Live SSE event-stream subscriptions."),
		jobsTotal: r.CounterVec("etap_server_jobs_total",
			"Job lifecycle transitions, by state entered.",
			"state"),
		jobsStored: r.Gauge("etap_server_jobs_stored",
			"Jobs held in the in-memory job table."),
		jobsEvicted: r.Counter("etap_server_jobs_evicted_total",
			"Finished jobs pruned from the job table by the max-jobs bound."),
	}
}

// enteredState counts one lifecycle transition.
func (sm *serverMetrics) enteredState(s State) {
	if sm == nil {
		return
	}
	sm.jobsTotal.With(string(s)).Inc()
}

// discardHandler drops every record; the default logger when no Logger
// is configured. (slog.DiscardHandler exists from Go
// 1.24; this keeps the module buildable with its declared go 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
