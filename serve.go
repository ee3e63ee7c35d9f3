package etap

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	"etap/internal/exp"
	"etap/internal/obs"
	obstrace "etap/internal/obs/trace"
	"etap/internal/server"
)

// Server is the HTTP characterization service: a JSON API over the Lab
// and campaign surface where clients POST source + policy + campaign
// options to /api/v1/jobs, poll status, stream per-trial progress over
// SSE (a disconnecting streaming client opened with ?cancel=1 cancels
// its campaign between trials; benchmark/source jobs keep their partial
// aggregates, experiment jobs cancel without a report), and fetch
// the final Report as JSON (byte-identical to WriteReportsJSON of a
// direct run), CSV or text. Jobs run on a bounded worker pool; every
// submission shares one Lab, so identical (source, policy, harden) keys
// compile exactly once. docs/SERVE.md documents the endpoints and the
// SSE event schema.
type Server struct {
	inner  *server.Server
	lab    *Lab
	tracer *obstrace.Tracer
}

// serveConfig collects the ServeOption knobs.
type serveConfig struct {
	lab         *Lab
	workers     int
	queueDepth  int
	stateFile   string
	maxBody     int64
	maxJobs     int
	pprof       bool
	logger      *slog.Logger
	otlpURL     string
	traceSample float64
}

// ServeOption configures NewServer and Serve.
type ServeOption func(*serveConfig)

// WithServeLab shares an existing Lab (and its compile cache) with the
// server; the default is a fresh NewLab.
func WithServeLab(l *Lab) ServeOption {
	return func(c *serveConfig) { c.lab = l }
}

// WithServeWorkers sizes the job worker pool — how many campaigns run
// concurrently. 0 means GOMAXPROCS.
func WithServeWorkers(n int) ServeOption {
	return func(c *serveConfig) { c.workers = n }
}

// WithServeQueueDepth bounds jobs waiting for a worker; a full queue
// rejects submissions with 503. 0 means 64.
func WithServeQueueDepth(n int) ServeOption {
	return func(c *serveConfig) { c.queueDepth = n }
}

// WithServeStateFile persists the job table as JSON at path (written
// atomically on every state change), so a restarted server still
// answers status and report queries for finished jobs. Jobs caught
// mid-flight by a restart come back as cancelled.
func WithServeStateFile(path string) ServeOption {
	return func(c *serveConfig) { c.stateFile = path }
}

// WithServeMaxBody bounds submission bodies in bytes. 0 means 8 MiB
// (room for the per-field source/input limits after JSON escaping).
func WithServeMaxBody(n int64) ServeOption {
	return func(c *serveConfig) { c.maxBody = n }
}

// WithServeMaxJobs bounds the in-memory job table: once it holds n
// jobs, new submissions prune the oldest finished jobs (their reports
// included) first. Live jobs are never pruned. 0 means the default
// bound (1024); negative means unbounded.
func WithServeMaxJobs(n int) ServeOption {
	return func(c *serveConfig) { c.maxJobs = n }
}

// WithServePprof mounts net/http/pprof under /debug/pprof/ on the
// service's handler. Opt-in: profiles expose internals no public
// deployment should.
func WithServePprof() ServeOption {
	return func(c *serveConfig) { c.pprof = true }
}

// WithServeLogger routes structured logs (job lifecycle with job IDs,
// HTTP requests with request IDs) to l. Without it the service logs
// nothing.
func WithServeLogger(l *slog.Logger) ServeOption {
	return func(c *serveConfig) { c.logger = l }
}

// WithServeOTLP pushes every sampled completed trace to an OTLP/HTTP
// JSON collector at url ("http://host:4318"; the standard /v1/traces
// path is appended when the URL has none). Export is asynchronous with
// retry and backoff; undeliverable traces are dropped and counted
// (etap_trace_otlp_dropped_total), never blocking a request or a job.
// The flight recorder behind GET /traces works with or without this.
func WithServeOTLP(url string) ServeOption {
	return func(c *serveConfig) { c.otlpURL = url }
}

// WithServeTraceSample sets the fraction of traces exported over OTLP,
// decided deterministically from the trace ID. 0 (the default) exports
// everything; negative exports nothing. Sampling only gates export —
// every completed trace still enters the flight recorder behind
// GET /traces.
func WithServeTraceSample(ratio float64) ServeOption {
	return func(c *serveConfig) { c.traceSample = ratio }
}

// NewServer assembles the characterization service. Close it when done;
// Serve does both around one HTTP listener.
func NewServer(opts ...ServeOption) (*Server, error) {
	var cfg serveConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.lab == nil {
		cfg.lab = NewLab()
	}
	s := &Server{lab: cfg.lab}
	var store server.Store
	if cfg.stateFile != "" {
		store = server.NewFileStore(cfg.stateFile)
	}
	registerLabMetrics(s.lab)
	// Tracing is always on: the flight recorder behind GET /traces is
	// the post-mortem surface for every deployment; OTLP export and its
	// sampling ratio are the opt-in parts.
	s.tracer = obstrace.New(obstrace.Config{
		SampleRatio: cfg.traceSample,
		OTLPURL:     cfg.otlpURL,
	})
	inner, err := server.New(server.Config{
		Run:          s.runJob,
		Prepare:      s.prepare,
		Workers:      cfg.workers,
		QueueDepth:   cfg.queueDepth,
		Store:        store,
		MaxBodyBytes: cfg.maxBody,
		MaxJobs:      cfg.maxJobs,
		EnablePprof:  cfg.pprof,
		Logger:       cfg.logger,
		Tracer:       s.tracer,
		Stats: func() map[string]any {
			return map[string]any{
				"lab": map[string]any{
					"entries":   s.lab.Len(),
					"builds":    s.lab.Builds(),
					"hits":      s.lab.Hits(),
					"evictions": s.lab.Evictions(),
				},
			}
		},
	})
	if err != nil {
		s.tracer.Close()
		return nil, err
	}
	s.inner = inner
	return s, nil
}

// registerLabMetrics exposes the server's shared Lab on the default
// registry. Func metrics replace on re-registration, so the newest
// server's Lab is the one scraped — the common deployments (one server
// per process, or tests constructing servers serially) both read the
// Lab that is actually serving.
func registerLabMetrics(l *Lab) {
	r := obs.Default()
	r.GaugeFunc("etap_lab_entries",
		"Distinct (source, policy, harden) keys cached in the serving Lab.",
		func() float64 { return float64(l.Len()) })
	r.CounterFunc("etap_lab_builds_total",
		"Cache misses the serving Lab paid for: compiles plus harden rewrites.",
		func() float64 { return float64(l.Builds()) })
	r.CounterFunc("etap_lab_hits_total",
		"Lab lookups served from cache.",
		func() float64 { return float64(l.Hits()) })
	r.CounterFunc("etap_lab_evictions_total",
		"Lab entries discarded by the LRU bound.",
		func() float64 { return float64(l.Evictions()) })
}

// Handler is the service's HTTP surface, mountable under any mux.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// Lab is the shared compile cache the server's jobs build through.
func (s *Server) Lab() *Lab { return s.lab }

// Close cancels running jobs (partial aggregates persist as cancelled),
// waits for the workers, writes a final state snapshot and flushes any
// queued OTLP trace exports.
func (s *Server) Close() error {
	err := s.inner.Close()
	s.tracer.Close()
	return err
}

// Serve runs the characterization service on addr until ctx is
// cancelled, then shuts down gracefully: in-flight responses get a
// grace period, running campaigns stop between trials and persist as
// cancelled.
func Serve(ctx context.Context, addr string, opts ...ServeOption) error {
	s, err := NewServer(opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
	}
	<-errCh // always http.ErrServerClosed after Shutdown/Close
	return nil
}

// defaultSweep is the errors-per-trial sweep a submission without an
// explicit errors list runs.
var defaultSweep = []int{1, 2, 4, 8}

// cleanRunBudget bounds the submit-time validation run of an ad-hoc
// source: a program whose fault-free run retires more instructions is
// rejected with a 400 rather than wedging a worker's unbounded golden
// pass.
const cleanRunBudget = 100_000_000

func reqErr(code, format string, args ...any) error {
	return &server.RequestError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// resolvePolicy maps the request's policy name; empty selects the
// paper's headline PolicyControlAddr.
func resolvePolicy(name string) (Policy, error) {
	if name == "" {
		return PolicyControlAddr, nil
	}
	p, ok := ParsePolicy(name)
	if !ok {
		return 0, reqErr("invalid_job", "unknown policy %q (have control, control+addr, conservative)", name)
	}
	return p, nil
}

// prepare validates a submission synchronously at submit time: the
// subject must resolve, and benchmark/source jobs must compile (and
// harden, when requested) through the shared Lab — so a malformed
// program is a structured 400, never a wedged job slot, and the job's
// later run is a pure cache hit.
func (s *Server) prepare(req *server.SubmitRequest) error {
	policy, err := resolvePolicy(req.Policy)
	if err != nil {
		return err
	}
	if req.Experiment != "" {
		if _, ok := ExperimentByID(req.Experiment); !ok {
			return reqErr("invalid_job", "unknown experiment %q (have %v)", req.Experiment, ExperimentIDs())
		}
		return nil
	}
	source := req.Source
	if req.Benchmark != "" {
		b, ok := BenchmarkByName(req.Benchmark)
		if !ok {
			return reqErr("invalid_job", "unknown benchmark %q", req.Benchmark)
		}
		source = b.Source()
	}
	sys, err := s.lab.Build(source, policy)
	if err != nil {
		return reqErr("bad_source", "source does not build: %v", err)
	}
	// Ad-hoc sources are untrusted: prove the clean run terminates
	// acceptably before a worker bets its golden pass on it. Benchmarks
	// are registered and known to complete.
	if req.Benchmark == "" {
		res := sys.RunLimited([]byte(req.Input), cleanRunBudget)
		if res.Outcome != Completed {
			return reqErr("bad_source", "clean run must complete, got %s after %d instructions (%s)",
				res.Outcome, res.Instructions, res.TrapDescription)
		}
	}
	if req.Harden != nil {
		opts := HardenOptions{DupCompare: req.Harden.DupCompare, Signatures: req.Harden.Signatures}
		if _, err := s.lab.Harden(source, policy, opts); err != nil {
			return reqErr("bad_source", "source does not harden: %v", err)
		}
	}
	return nil
}

// runJob executes one validated job on a worker.
func (s *Server) runJob(ctx context.Context, req *server.SubmitRequest, progress func(server.TrialEvent)) (*exp.Report, error) {
	if req.Experiment != "" {
		return s.runExperimentJob(ctx, req, progress)
	}
	return s.runSweepJob(ctx, req, progress)
}

// campaignOptions translates the request's campaign knobs.
func campaignOptions(req *server.SubmitRequest) []Option {
	var opts []Option
	if req.Trials > 0 {
		opts = append(opts, WithTrials(req.Trials))
	}
	if req.MinTrials > 0 {
		opts = append(opts, WithMinTrials(req.MinTrials))
	}
	if req.Seed != 0 {
		opts = append(opts, WithSeed(req.Seed))
	}
	if req.Workers > 0 {
		opts = append(opts, WithWorkers(req.Workers))
	}
	if req.StopCI > 0 {
		opts = append(opts, WithStopCI(req.StopCI))
	}
	if req.Recovery > 0 {
		opts = append(opts, WithRecovery(req.Recovery))
	}
	return opts
}

// runExperimentJob replays one registered experiment. The report is the
// exact Report a direct Experiment.Run with the same options returns —
// the served JSON is byte-identical to WriteReportsJSON of that run.
func (s *Server) runExperimentJob(ctx context.Context, req *server.SubmitRequest, progress func(server.TrialEvent)) (*exp.Report, error) {
	e, ok := ExperimentByID(req.Experiment)
	if !ok {
		return nil, reqErr("invalid_job", "unknown experiment %q", req.Experiment)
	}
	opts := campaignOptions(req)
	if req.Policy != "" {
		policy, err := resolvePolicy(req.Policy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithPolicy(policy))
	}
	// The registry harness restarts trial indices at 0 on every new
	// campaign point; the reset marks the point boundary.
	point, lastTrial := 0, -1
	opts = append(opts, WithProgress(func(ev ProgressEvent) {
		if ev.Trial <= lastTrial {
			point++
		}
		lastTrial = ev.Trial
		progress(server.TrialEvent{
			Point:        point,
			Errors:       -1,
			Trial:        ev.Trial,
			Outcome:      ev.Outcome.String(),
			Instructions: ev.Instructions,
			Shard:        ev.Shard,
		})
	}))
	return e.Run(ctx, opts...)
}

// runSweepJob characterizes one benchmark or ad-hoc source: build (a
// Lab cache hit after prepare), set up the campaign, sweep the error
// counts, and fold the points into a Report. A cancelled context stops
// between trials and returns the partial report alongside ctx.Err(),
// so the manager persists the partial aggregates.
func (s *Server) runSweepJob(ctx context.Context, req *server.SubmitRequest, progress func(server.TrialEvent)) (*exp.Report, error) {
	policy, err := resolvePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	subject := "source"
	source := req.Source
	input := []byte(req.Input)
	var score func(golden, corrupted []byte) (float64, bool)
	if req.Benchmark != "" {
		b, ok := BenchmarkByName(req.Benchmark)
		if !ok {
			return nil, reqErr("invalid_job", "unknown benchmark %q", req.Benchmark)
		}
		subject = b.Name()
		source = b.Source()
		input = b.Input()
		score = b.Score
	}

	var camp *Campaign
	mode := "protected"
	switch {
	case req.Harden != nil:
		mode = "hardened (detection campaign)"
		h, err := s.lab.Harden(source, policy, HardenOptions{
			DupCompare: req.Harden.DupCompare,
			Signatures: req.Harden.Signatures,
		})
		if err != nil {
			return nil, err
		}
		camp, err = h.NewDetectionCampaign(input)
		if err != nil {
			return nil, err
		}
	default:
		protected := req.Protected == nil || *req.Protected
		if !protected {
			mode = "unprotected"
		}
		sys, err := s.lab.Build(source, policy)
		if err != nil {
			return nil, err
		}
		camp, err = sys.NewCampaign(input, protected)
		if err != nil {
			return nil, err
		}
	}
	if score != nil {
		camp.SetScore(score)
	}

	sweep := req.Errors
	if len(sweep) == 0 {
		sweep = defaultSweep
	}
	opts := campaignOptions(req)
	var points []PointStats
	for i, n := range sweep {
		if ctx.Err() != nil {
			break
		}
		i, n := i, n
		pointOpts := append(opts[:len(opts):len(opts)], WithProgress(func(ev ProgressEvent) {
			progress(server.TrialEvent{
				Point:        i,
				Errors:       n,
				Trial:        ev.Trial,
				Outcome:      ev.Outcome.String(),
				Instructions: ev.Instructions,
				Shard:        ev.Shard,
			})
		}))
		points = append(points, camp.RunPoint(ctx, n, pointOpts...))
	}
	report := sweepReport(req, subject, mode, policy, points)
	// Report cancellation only when it actually curtailed the sweep: a
	// cancel landing after the final trial must not relabel a complete
	// run.
	curtailed := len(points) < len(sweep)
	for _, p := range points {
		curtailed = curtailed || p.Cancelled
	}
	if err := ctx.Err(); err != nil && curtailed {
		return report, err
	}
	return report, nil
}

// sweepReport folds sweep points into the structured Report the report
// endpoint serves. Cell text follows the exp renderers' conventions
// ("-" for NaN); a status column flags early-stopped and cancelled
// (partial) points.
func sweepReport(req *server.SubmitRequest, subject, mode string, policy Policy, points []PointStats) *exp.Report {
	trials := req.Trials
	if trials <= 0 {
		trials = 40
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	r := &exp.Report{
		ID:    "characterize",
		Title: fmt.Sprintf("Characterization of %s, %s, policy %s", subject, mode, policy),
		Kind:  exp.KindTable,
		App:   subject,
		Columns: []exp.Column{
			{Name: "errors", Unit: "count"},
			{Name: "trials", Unit: "count"},
			{Name: "crashes", Unit: "count"},
			{Name: "timeouts", Unit: "count"},
			{Name: "detected", Unit: "count"},
			{Name: "recovered", Unit: "count"},
			{Name: "completed", Unit: "count"},
			{Name: "masked", Unit: "count"},
			{Name: "accepted", Unit: "count"},
			{Name: "tolerated", Unit: "count"},
			{Name: "untolerated", Unit: "count"},
			{Name: "fail", Unit: "%"},
			{Name: "accept", Unit: "%"},
			{Name: "detect", Unit: "%"},
			{Name: "availability", Unit: "%"},
			{Name: "mean fidelity", Unit: "x"},
			{Name: "detect latency p50", Unit: "instructions"},
			{Name: "detect latency p95", Unit: "instructions"},
			{Name: "recover latency p50", Unit: "instructions"},
			{Name: "status"},
		},
		Trials: trials,
		Seed:   seed,
		Policy: policy.String(),
	}
	for _, p := range points {
		status := "ok"
		switch {
		case p.Cancelled:
			status = "cancelled (partial)"
		case p.EarlyStopped:
			status = "early stop"
		}
		r.Rows = append(r.Rows, []exp.Cell{
			exp.CellInt(p.Errors),
			exp.CellInt(p.Trials),
			exp.CellInt(p.Crashes),
			exp.CellInt(p.Timeouts),
			exp.CellInt(p.Detected),
			exp.CellInt(p.Recovered),
			exp.CellInt(p.Completed),
			exp.CellInt(p.Masked),
			exp.CellInt(p.Accepted),
			exp.CellInt(p.Tolerated),
			exp.CellInt(p.Untolerated),
			exp.CellCI(fmtPct(p.FailPct), p.FailPct, p.FailLowPct, p.FailHighPct),
			exp.CellNum(fmtPct(p.AcceptPct), p.AcceptPct),
			exp.CellCI(fmtPct(p.DetectPct), p.DetectPct, p.DetectLowPct, p.DetectHighPct),
			exp.CellCI(fmtPct(p.AvailabilityPct), p.AvailabilityPct, p.AvailabilityLowPct, p.AvailabilityHighPct),
			exp.CellNum(fmtFid(p.MeanValue), p.MeanValue),
			exp.CellInt(int(p.DetectLatencyP50)),
			exp.CellInt(int(p.DetectLatencyP95)),
			exp.CellInt(int(p.RecoverLatencyP50)),
			exp.CellStr(status),
		})
	}
	return r
}

func fmtPct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", v)
}

func fmtFid(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
