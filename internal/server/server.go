// Package server is the HTTP characterization service behind etap.Serve:
// a JSON API over the etap Lab/campaign surface where clients submit
// characterization jobs (source + policy + campaign options), poll
// status, fetch the final report (JSON/CSV/text, reusing the exp
// renderers), and stream per-trial progress over SSE.
//
// The package is deliberately ignorant of the public etap types: the
// root package injects a RunFunc (and a Prepare validator) via Config,
// so server owns jobs, queueing, persistence and transport while etap
// owns compilation, campaigns and reports. docs/SERVE.md documents the
// wire surface.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etap/internal/exp"
	"etap/internal/obs"
	"etap/internal/obs/trace"
)

// State is one job's lifecycle position.
type State string

const (
	// StateQueued means the job waits for a worker slot.
	StateQueued State = "queued"
	// StateRunning means a worker is executing the campaign.
	StateRunning State = "running"
	// StateDone means the job finished and its report is available.
	StateDone State = "done"
	// StateFailed means the run errored; Error explains.
	StateFailed State = "failed"
	// StateCancelled means the job was cancelled (explicitly, by a
	// disconnecting streaming client, or by a server restart). A job
	// cancelled mid-campaign keeps its partial aggregates.
	StateCancelled State = "cancelled"
)

// terminal reports whether s is an end state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// TrialEvent is one campaign trial as reported by a RunFunc's progress
// callback and streamed to SSE subscribers.
type TrialEvent struct {
	// Point is the index of the measurement point within the job (the
	// position in the errors sweep, or the running point count of an
	// experiment).
	Point int `json:"point"`
	// Errors is the point's per-trial error count; -1 when the run
	// cannot attribute it (experiment jobs).
	Errors int `json:"errors"`
	// Trial is the zero-based trial index within its point.
	Trial int `json:"trial"`
	// Outcome classifies the trial ("completed", "crashed", ...).
	Outcome string `json:"outcome"`
	// Instructions is the trial's retired instruction count.
	Instructions uint64 `json:"instructions"`
	// Shard is the engine shard that executed the trial.
	Shard int `json:"shard"`
}

// RunFunc executes one validated job: run the campaign(s), feed every
// trial to progress, and return the structured report. On context
// cancellation it should stop between trials and, when the run shape
// supports it, return the partial report alongside ctx.Err(), so the
// manager can persist the partial aggregates under StateCancelled. A
// RunFunc whose underlying harness cannot produce partial results
// (etap's experiment registry returns nil on cancellation) may return
// (nil, ctx.Err()); the job is then cancelled with no report and the
// report endpoint says so.
type RunFunc func(ctx context.Context, req *SubmitRequest, progress func(TrialEvent)) (*exp.Report, error)

// Config assembles a Manager.
type Config struct {
	// Run executes jobs. Required.
	Run RunFunc
	// Prepare, when set, validates a parsed submission synchronously at
	// submit time (e.g. compiling the source through the shared Lab). An
	// error rejects the submission with a structured 400 and never
	// occupies a job slot. At most Workers Prepare calls run at once;
	// excess submissions wait their turn before validating.
	Prepare func(*SubmitRequest) error
	// Workers is the job worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; a full queue rejects
	// submissions with 503. 0 means 64.
	QueueDepth int
	// Store persists the job table; nil means a fresh MemStore.
	Store Store
	// MaxBodyBytes bounds request bodies; 0 means 8 MiB — enough head
	// room for the per-field limits (MaxSourceBytes, MaxInputBytes) to
	// be reachable after JSON escaping, so oversized fields get their
	// structured invalid_job error instead of a blanket 413.
	MaxBodyBytes int64
	// MaxJobs bounds the in-memory job table: once it holds this many
	// jobs, submitting a new one prunes the oldest finished
	// (done/failed/cancelled) jobs first. Live jobs are never pruned, so
	// the table can transiently exceed the bound when everything stored
	// is still queued or running. 0 means DefaultMaxJobs; negative means
	// unbounded (the pre-bound behaviour).
	MaxJobs int
	// Stats, when set, contributes extra fields (e.g. Lab cache
	// counters) to the healthz payload.
	Stats func() map[string]any
	// Metrics is the registry the service instruments (HTTP, queue,
	// worker and job-lifecycle families) and serves at GET /metrics.
	// nil means obs.Default().
	Metrics *obs.Registry
	// Tracer, when set, gives every HTTP request and every job a span
	// tree: request → job → queued/run → campaign points and shards. It
	// also mounts GET /traces and GET /traces/{id} over the tracer's
	// flight recorder. nil disables tracing (spans become no-ops).
	Tracer *trace.Tracer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in,
	// because profiles expose internals no public deployment should.
	EnablePprof bool
	// Logger receives structured logs (job lifecycle with job IDs, HTTP
	// requests with request IDs). nil discards them.
	Logger *slog.Logger
}

// DefaultMaxJobs bounds the job table when Config.MaxJobs is zero: old
// finished jobs (and their report JSON) must not accumulate in memory
// forever.
const DefaultMaxJobs = 1024

func (c Config) withDefaults() (Config, error) {
	if c.Run == nil {
		return c, errors.New("server: Config.Run is required")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = DefaultMaxJobs
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c, nil
}

// ErrQueueFull rejects a submission when every queue slot is taken.
var ErrQueueFull = errors.New("server: job queue is full")

// ErrClosed rejects submissions after Close.
var ErrClosed = errors.New("server: manager is closed")

// eventBufferCap bounds the per-job replay buffer. Jobs emitting more
// events drop the oldest; SSE subscribers arriving later see a gap in
// seq but never a reordering.
const eventBufferCap = 8192

// subChanCap is the per-subscriber channel depth; a subscriber that
// lags further than this misses events (seq stays monotonic).
const subChanCap = 1024

// Event is one SSE-visible occurrence on a job: a state change or a
// trial. Seq increases by one per event per job.
type Event struct {
	// Name is the SSE event name ("state" or "trial").
	Name string
	// Seq is the job-wide event sequence number, also the SSE id.
	Seq int
	// Data is the marshaled payload; immutable once published.
	Data json.RawMessage
}

// stateEventData is the payload of "state" events and of the status
// endpoint's state snapshot. RequestID and TraceID join the stream to
// the submitting HTTP request's log lines and to the flight-recorded
// trace.
type stateEventData struct {
	State      State  `json:"state"`
	TrialsDone int    `json:"trials_done"`
	Error      string `json:"error,omitempty"`
	RequestID  string `json:"request_id,omitempty"`
	TraceID    string `json:"trace_id,omitempty"`
}

// trialEventData is the payload of "trial" events.
type trialEventData struct {
	Seq       int    `json:"seq"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	TrialEvent
}

// Job is one submitted characterization job.
type Job struct {
	ID      string
	Spec    *SubmitRequest
	Created time.Time

	// metrics is the owning manager's metric set (shared, never nil for
	// manager-created jobs); the job updates the SSE subscriber gauge.
	metrics *serverMetrics

	// requestID is the X-Request-Id of the submitting HTTP request
	// ("" for programmatic submissions); traceID joins the job to its
	// flight-recorded trace. Both are immutable after Submit.
	requestID string
	traceID   string

	// span covers the job's whole lifetime (child of the submitting
	// request's span); queuedSpan covers the wait for a worker. Nil when
	// tracing is off — all span methods are nil-safe.
	span       *trace.Span
	queuedSpan *trace.Span

	mu         sync.Mutex
	state      State
	err        string
	started    time.Time
	finished   time.Time
	trialsDone int
	report     *exp.Report     // live result, nil until done/cancelled
	reportJSON json.RawMessage // canonical JSON object of report
	cancel     context.CancelFunc

	seq    int
	buffer []Event
	subs   map[chan Event]struct{}

	// accepted is the job as Submit enqueued it, taken before any worker
	// can see the job: the submit ack reports it, so a 202 always says
	// "queued" however fast a worker picks the job up.
	accepted Snapshot
}

// Snapshot is an immutable copy of a job's observable state. TraceID,
// when tracing is on, is the key for GET /traces/{id} once the job's
// trace completes.
type Snapshot struct {
	ID         string          `json:"id"`
	Subject    string          `json:"subject"`
	State      State           `json:"state"`
	Error      string          `json:"error,omitempty"`
	Created    time.Time       `json:"created"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	TrialsDone int             `json:"trials_done"`
	Report     bool            `json:"report_ready"`
	RequestID  string          `json:"request_id,omitempty"`
	TraceID    string          `json:"trace_id,omitempty"`
	reportJSON json.RawMessage `json:"-"`
	report     *exp.Report
}

func (j *Job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:         j.ID,
		Subject:    j.Spec.Subject(),
		State:      j.state,
		Error:      j.err,
		Created:    j.Created,
		TrialsDone: j.trialsDone,
		Report:     len(j.reportJSON) > 0,
		RequestID:  j.requestID,
		TraceID:    j.traceID,
		reportJSON: j.reportJSON,
		report:     j.report,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// publish appends an event (assigning its seq) and fans it out.
// Callers hold j.mu.
func (j *Job) publishLocked(name string, data any) {
	var payload json.RawMessage
	switch d := data.(type) {
	case trialEventData:
		d.Seq = j.seq
		b, err := json.Marshal(d)
		if err != nil {
			return
		}
		payload = b
	default:
		b, err := json.Marshal(data)
		if err != nil {
			return
		}
		payload = b
	}
	ev := Event{Name: name, Seq: j.seq, Data: payload}
	j.seq++
	j.buffer = append(j.buffer, ev)
	if len(j.buffer) > eventBufferCap {
		j.buffer = j.buffer[len(j.buffer)-eventBufferCap:]
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // lagging subscriber: drop, seq shows the gap
		}
	}
}

func (j *Job) publishState() {
	j.publishLocked("state", stateEventData{
		State: j.state, TrialsDone: j.trialsDone, Error: j.err,
		RequestID: j.requestID, TraceID: j.traceID,
	})
}

// Subscribe returns the replayable event history so far and, for live
// jobs, a channel of subsequent events plus an unsubscribe func. For
// finished jobs the channel is nil: the replay already ends with the
// terminal state event.
func (j *Job) Subscribe() (replay []Event, ch <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.buffer...)
	if j.state.terminal() {
		return replay, nil, func() {}
	}
	c := make(chan Event, subChanCap)
	j.subs[c] = struct{}{}
	if j.metrics != nil {
		j.metrics.sseSubs.Inc()
	}
	return replay, c, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[c]; ok {
			delete(j.subs, c)
			close(c)
			if j.metrics != nil {
				j.metrics.sseSubs.Dec()
			}
		}
	}
}

// lastEvent returns the newest buffered event — after a job finishes,
// the terminal state event. SSE handlers use it to re-deliver a
// terminal frame a lagging subscriber's channel dropped.
func (j *Job) lastEvent() (Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.buffer) == 0 {
		return Event{}, false
	}
	return j.buffer[len(j.buffer)-1], true
}

// closeSubsLocked ends every subscription after the terminal event was
// published. Callers hold j.mu.
func (j *Job) closeSubsLocked() {
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
		if j.metrics != nil {
			j.metrics.sseSubs.Dec()
		}
	}
}

// Manager owns the job table, the bounded worker pool and persistence.
type Manager struct {
	cfg     Config
	log     *slog.Logger
	metrics *serverMetrics
	started time.Time

	busy    atomic.Int64 // workers currently executing a job
	evicted atomic.Int64 // finished jobs pruned by the MaxJobs bound

	baseCtx context.Context
	stop    context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond // signals workers when pending grows or closed flips
	jobs    map[string]*Job
	order   []string // creation order
	pending []*Job   // queued jobs awaiting a worker; bounded by QueueDepth
	closed  bool

	wg sync.WaitGroup

	// prepSem bounds concurrent Prepare calls: submit-time validation
	// compiles and clean-runs untrusted programs, and net/http gives
	// every connection its own goroutine — without a bound, N hostile
	// submissions run N simultaneous simulations outside the worker
	// pool. Excess submissions wait their turn here.
	prepSem chan struct{}

	saveMu sync.Mutex
}

// NewManager loads the store, marks jobs interrupted by the previous
// shutdown as cancelled, and starts the worker pool.
func NewManager(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		log:     cfg.Logger,
		metrics: newServerMetrics(cfg.Metrics),
		started: time.Now().UTC(),
		baseCtx: ctx,
		stop:    stop,
		jobs:    make(map[string]*Job),
		prepSem: make(chan struct{}, cfg.Workers),
	}
	m.cond = sync.NewCond(&m.mu)
	persisted, err := cfg.Store.Load()
	if err != nil {
		stop()
		return nil, err
	}
	for _, p := range persisted {
		p := p
		j := &Job{
			ID:        p.ID,
			Spec:      &p.Spec,
			Created:   p.Created,
			metrics:   m.metrics,
			requestID: p.RequestID,
			state:     p.State,
			err:       p.Error,
			started:   p.Started, finished: p.Finished,
			trialsDone: p.TrialsDone,
			reportJSON: p.Report,
			subs:       make(map[chan Event]struct{}),
		}
		if len(p.Report) > 0 {
			// Reports are served from the raw JSON byte-for-byte; the
			// decoded form only feeds the CSV/text renderers.
			var r exp.Report
			if json.Unmarshal(p.Report, &r) == nil {
				j.report = &r
			}
		}
		if !j.state.terminal() {
			j.state = StateCancelled
			j.err = "interrupted by server restart"
			if j.finished.IsZero() {
				j.finished = time.Now().UTC()
			}
		}
		// The restored buffer is empty; seed it with the terminal state
		// event so the events endpoint keeps its contract — the replay
		// always ends with a terminal state frame. (j is not shared yet,
		// so publishLocked's lock requirement is trivially met.)
		j.publishState()
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
	}
	sort.SliceStable(m.order, func(a, b int) bool {
		return m.jobs[m.order[a]].Created.Before(m.jobs[m.order[b]].Created)
	})
	// A reloaded table may exceed the bound the previous process ran
	// without (or a lowered one); prune before serving.
	m.mu.Lock()
	evicted := m.pruneLocked()
	m.mu.Unlock()
	m.forgetJobs(evicted)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				m.mu.Lock()
				for len(m.pending) == 0 && !m.closed {
					m.cond.Wait()
				}
				if len(m.pending) == 0 {
					m.mu.Unlock()
					return // closed and drained
				}
				j := m.pending[0]
				m.pending = m.pending[1:]
				m.metrics.queueDepth.Dec()
				m.mu.Unlock()
				m.runJob(j)
			}
		}()
	}
	return m, nil
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "j" + hex.EncodeToString(b[:])
}

// startJobSpan opens the job's lifetime span. With a configured tracer
// the span roots a fresh trace (or joins the submitting request's), so
// every job is traceable even when submitted programmatically; without
// one it degrades to a child of whatever span ctx carries, usually nil.
func (m *Manager) startJobSpan(ctx context.Context, j *Job) (context.Context, *trace.Span) {
	attrs := []trace.Attr{
		trace.String("job_id", j.ID),
		trace.String("subject", j.Spec.Subject()),
	}
	if j.requestID != "" {
		attrs = append(attrs, trace.String("request_id", j.requestID))
	}
	if m.cfg.Tracer != nil {
		return m.cfg.Tracer.Start(ctx, "job", attrs...)
	}
	return trace.Start(ctx, "job", attrs...)
}

// endSpans closes the job's spans at a terminal state. Safe to call
// from racing paths (Cancel vs runJob): End is idempotent.
func (j *Job) endSpans(state State, errText string) {
	j.queuedSpan.End()
	j.span.SetAttr(trace.String("state", string(state)))
	switch state {
	case StateDone:
		j.span.SetStatus(trace.StatusOK, "")
	case StateFailed:
		j.span.SetStatus(trace.StatusError, errText)
	}
	j.span.End()
}

// jobLog is the manager's logger enriched with the job's request and
// trace identifiers, so one grep joins HTTP access logs, job lifecycle
// lines and the flight-recorded trace.
func (m *Manager) jobLog(j *Job) *slog.Logger {
	l := m.log
	if j.requestID != "" {
		l = l.With("request", j.requestID)
	}
	if j.traceID != "" {
		l = l.With("trace", j.traceID)
	}
	return l
}

// Submit validates (via Prepare), registers and enqueues one job. ctx
// carries the submitting request's identity — its request ID and span
// (or remote traceparent) — which the job inherits; the job itself is
// not bound by ctx's lifetime.
func (m *Manager) Submit(ctx context.Context, req *SubmitRequest) (*Job, error) {
	if m.cfg.Prepare != nil {
		// Don't pay for validation when the submission cannot be accepted
		// anyway. (Racing submissions may still re-hit these checks at
		// enqueue time below; this one just keeps a full queue cheap.)
		m.mu.Lock()
		closed, full := m.closed, len(m.pending) >= m.cfg.QueueDepth
		m.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		if full {
			return nil, ErrQueueFull
		}
		m.prepSem <- struct{}{}
		err := m.cfg.Prepare(req)
		<-m.prepSem
		if err != nil {
			return nil, err
		}
	}
	j := &Job{
		ID:        newJobID(),
		Spec:      req,
		Created:   time.Now().UTC(),
		metrics:   m.metrics,
		requestID: RequestIDFromContext(ctx),
		state:     StateQueued,
		subs:      make(map[chan Event]struct{}),
	}
	jctx, span := m.startJobSpan(ctx, j)
	j.span = span
	j.traceID = span.TraceID()
	_, j.queuedSpan = trace.Start(jctx, "job.queued")
	j.mu.Lock()
	j.publishState()
	j.mu.Unlock()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		j.endSpans(StateFailed, ErrClosed.Error())
		return nil, ErrClosed
	}
	if len(m.pending) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		j.endSpans(StateFailed, ErrQueueFull.Error())
		return nil, ErrQueueFull
	}
	m.pending = append(m.pending, j)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.metrics.queueDepth.Inc()
	evicted := m.pruneLocked()
	j.accepted = j.snapshot()
	m.cond.Signal()
	m.mu.Unlock()

	m.metrics.enteredState(StateQueued)
	m.jobLog(j).Info("job queued", "job", j.ID, "subject", req.Subject())
	m.forgetJobs(evicted)
	m.persistJob(j)
	return j, nil
}

// pruneLocked evicts the oldest finished jobs while the table exceeds
// cfg.MaxJobs, returning the evicted IDs so the caller can drop them
// from an incremental store (outside m.mu — store I/O never runs under
// the table lock). Queued and running jobs are never evicted — the
// table may transiently exceed the bound when everything stored is
// live. Callers hold m.mu.
func (m *Manager) pruneLocked() (evicted []string) {
	if m.cfg.MaxJobs < 0 {
		return nil
	}
	for len(m.jobs) > m.cfg.MaxJobs {
		victim := -1
		for i, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			terminal := j.state.terminal()
			j.mu.Unlock()
			if terminal {
				victim = i
				break
			}
		}
		if victim < 0 {
			break // every stored job is live; nothing prunable
		}
		id := m.order[victim]
		m.order = append(m.order[:victim], m.order[victim+1:]...)
		delete(m.jobs, id)
		evicted = append(evicted, id)
		m.evicted.Add(1)
		m.metrics.jobsEvicted.Inc()
		m.log.Info("job evicted", "job", id, "stored", len(m.jobs), "max_jobs", m.cfg.MaxJobs)
	}
	m.metrics.jobsStored.Set(float64(len(m.jobs)))
	return evicted
}

// Get resolves one job.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every job in creation order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// Counts tallies jobs per state.
func (m *Manager) Counts() map[State]int {
	out := make(map[State]int)
	for _, s := range m.List() {
		out[s.State]++
	}
	return out
}

// Uptime is the time since the manager started.
func (m *Manager) Uptime() time.Duration { return time.Since(m.started) }

// BusyWorkers counts workers currently executing a job.
func (m *Manager) BusyWorkers() int { return int(m.busy.Load()) }

// QueueLen counts jobs waiting for a worker slot.
func (m *Manager) QueueLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// StoredJobs counts jobs held in the in-memory table.
func (m *Manager) StoredJobs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// EvictedJobs counts finished jobs pruned by the MaxJobs bound over the
// manager's lifetime.
func (m *Manager) EvictedJobs() int64 { return m.evicted.Load() }

// Cancel stops a job: queued jobs finish immediately as cancelled,
// running jobs get their context cancelled (the campaign stops between
// trials and keeps its partial aggregates). Cancelling a finished job
// is a no-op reporting false.
func (m *Manager) Cancel(id string) (bool, error) {
	j, ok := m.Get(id)
	if !ok {
		return false, fmt.Errorf("server: no job %q", id)
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = "cancelled before start"
		j.finished = time.Now().UTC()
		j.publishState()
		j.closeSubsLocked()
		j.mu.Unlock()
		j.endSpans(StateCancelled, "")
		// Free the queue slot now — a cancelled job must not hold the
		// queue full until a worker happens to drain it.
		m.dropPending(j)
		m.metrics.enteredState(StateCancelled)
		m.jobLog(j).Info("job cancelled while queued", "job", j.ID)
		m.persistJob(j)
		return true, nil
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true, nil
	default:
		j.mu.Unlock()
		return false, nil
	}
}

// dropPending removes j from the pending queue, if it is still there.
// (A worker may have popped it concurrently; runJob then discards it on
// seeing the non-queued state.)
func (m *Manager) dropPending(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, q := range m.pending {
		if q == j {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			m.metrics.queueDepth.Dec()
			return
		}
	}
}

// runJob executes one dequeued job through the configured RunFunc.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.cancel = cancel
	j.publishState()
	j.mu.Unlock()
	// The submitting request's context is long gone; re-root the worker
	// context on the job's lifetime span so the run span — and the
	// campaign point/shard spans the RunFunc creates beneath it — nest
	// in the job's trace.
	j.queuedSpan.End()
	ctx = trace.ContextWithSpan(ctx, j.span)
	ctx, runSpan := trace.Start(ctx, "job.run")
	m.busy.Add(1)
	m.metrics.workersBusy.Inc()
	defer func() {
		m.busy.Add(-1)
		m.metrics.workersBusy.Dec()
	}()
	m.metrics.enteredState(StateRunning)
	m.jobLog(j).Info("job running", "job", j.ID)
	m.persistJob(j)

	progress := func(ev TrialEvent) {
		j.mu.Lock()
		j.trialsDone++
		j.publishLocked("trial", trialEventData{
			RequestID: j.requestID, TraceID: j.traceID, TrialEvent: ev,
		})
		j.mu.Unlock()
	}
	report, err := m.run(ctx, j, progress)

	j.mu.Lock()
	j.finished = time.Now().UTC()
	j.cancel = nil
	if report != nil {
		if raw, merr := json.Marshal(report); merr == nil {
			j.report = report
			j.reportJSON = raw
		} else if err == nil {
			err = fmt.Errorf("encoding report: %w", merr)
		}
	}
	switch {
	case err == nil && len(j.reportJSON) > 0:
		// A run that returned a complete report stays done even when a
		// cancel landed after the last trial — cancellation that did not
		// curtail anything must not relabel a finished result.
		j.state = StateDone
	case ctx.Err() != nil:
		j.state = StateCancelled
		j.err = "cancelled mid-campaign; partial aggregates kept"
		if report == nil {
			j.err = "cancelled mid-campaign"
		}
	case err != nil:
		j.state = StateFailed
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = "run produced no report"
	}
	j.publishState()
	j.closeSubsLocked()
	state, errText, trials := j.state, j.err, j.trialsDone
	elapsed := j.finished.Sub(j.started)
	j.mu.Unlock()
	runSpan.SetAttr(trace.Int("trials", int64(trials)))
	if state == StateFailed {
		runSpan.SetStatus(trace.StatusError, errText)
	}
	runSpan.End()
	j.endSpans(state, errText)
	m.metrics.enteredState(state)
	if errText != "" {
		m.jobLog(j).Info("job finished", "job", j.ID, "state", state, "trials", trials, "elapsed", elapsed, "error", errText)
	} else {
		m.jobLog(j).Info("job finished", "job", j.ID, "state", state, "trials", trials, "elapsed", elapsed)
	}
	m.persistJob(j)
}

// run guards the RunFunc against panics so one bad job cannot wedge a
// worker slot.
func (m *Manager) run(ctx context.Context, j *Job, progress func(TrialEvent)) (report *exp.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			report, err = nil, fmt.Errorf("run panicked: %v", r)
		}
	}()
	return m.cfg.Run(ctx, j.Spec, progress)
}

// persisted builds the job's durable form.
func (j *Job) persisted() PersistedJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return PersistedJob{
		ID:         j.ID,
		Spec:       *j.Spec,
		State:      j.state,
		Error:      j.err,
		Created:    j.Created,
		Started:    j.started,
		Finished:   j.finished,
		TrialsDone: j.trialsDone,
		RequestID:  j.requestID,
		Report:     j.reportJSON,
	}
}

// persistJob saves one job's durable state after a state change.
// Incremental stores (JobStore) get just that job — O(1) instead of
// rewriting the whole table, which dominated submit/finish latency once
// the table held many finished jobs with reports. Plain stores fall
// back to the full snapshot.
func (m *Manager) persistJob(j *Job) {
	js, ok := m.cfg.Store.(JobStore)
	if !ok {
		m.persist()
		return
	}
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	if err := js.SaveJob(j.persisted()); err != nil {
		m.log.Error("persisting job failed", "job", j.ID, "error", err)
	}
}

// forgetJobs drops evicted jobs from an incremental store. Plain
// stores need nothing: their next full snapshot simply omits the
// evicted jobs.
func (m *Manager) forgetJobs(ids []string) {
	if len(ids) == 0 {
		return
	}
	js, ok := m.cfg.Store.(JobStore)
	if !ok {
		return
	}
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	for _, id := range ids {
		if err := js.DeleteJob(id); err != nil {
			m.log.Error("dropping evicted job from store failed", "job", id, "error", err)
		}
	}
}

// persist snapshots the whole job table through the store. Saves are
// serialized; a late save always writes the newest table.
func (m *Manager) persist() {
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]PersistedJob, len(jobs))
	for i, j := range jobs {
		out[i] = j.persisted()
	}
	if err := m.cfg.Store.Save(out); err != nil {
		m.log.Error("persisting job table failed", "error", err)
	}
}

// Close stops accepting submissions, cancels running jobs (their
// partial aggregates persist as cancelled), waits for the workers and
// writes a final snapshot.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	m.persist()
	return nil
}
