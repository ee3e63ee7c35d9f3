// Package trace is the zero-dependency distributed-tracing subsystem:
// W3C-compatible trace/span identifiers, race-safe spans with bounded
// attributes and events, context propagation, deterministic sampling,
// an always-on flight recorder of recent completed traces, and an
// OTLP/HTTP JSON exporter — stdlib only, matching the module's empty
// dependency set.
//
// Like the metrics plane it extends (package obs), tracing is
// observationally pure: spans record what campaigns did, they never
// feed back into RNG streams, trial ordering or any computed value. A
// guard test at the repo root pins campaign results byte-identical
// with tracing enabled and disabled.
//
// Span creation is coarse by design: the simulator hot loop is never
// instrumented. The service creates one span per HTTP request, one per
// job, one per campaign point and one per shard; per-trial data rides
// as bounded, sampled span events recorded between trials. A process
// typically holds a few dozen live spans, so the subsystem optimizes
// for post-mortem value, not span throughput.
//
// docs/OBSERVABILITY.md documents the span model, the sampling knobs,
// the /traces API and the OTLP configuration.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"

	"etap/internal/obs"
)

// TraceID identifies one trace, W3C style: 16 random bytes, hex on the
// wire.
type TraceID [16]byte

// IsZero reports the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace: 8 random bytes.
type SpanID [8]byte

// IsZero reports the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated identity of a span: what traceparent
// carries across process boundaries.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the W3C sampled flag: whether the trace is selected
	// for export. Unsampled traces still enter the flight recorder.
	Sampled bool
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value span or event attribute. Values are restricted
// to strings, bools, int64s and float64s — the OTLP value kinds the
// exporter encodes.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{k, v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{k, v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{k, v} }

// Float builds a floating-point attribute.
func Float(k string, v float64) Attr { return Attr{k, v} }

// Status classifies how the operation a span covers ended.
type Status uint8

const (
	// StatusUnset is the default: nothing notable.
	StatusUnset Status = iota
	// StatusOK marks an explicitly successful span.
	StatusOK
	// StatusError marks a failed span; the message explains.
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	}
	return "unset"
}

// Event is one timestamped occurrence on a span — the vehicle for
// sampled per-trial records.
type Event struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// Span is one timed operation in a trace. All methods are safe for
// concurrent use and safe on a nil receiver, so instrumented code needs
// no tracer-present checks.
type Span struct {
	tracer *Tracer
	trace  *liveTrace
	sc     SpanContext
	parent SpanID

	mu            sync.Mutex
	name          string
	start, end    time.Time
	attrs         []Attr
	events        []Event
	droppedEvents int
	status        Status
	statusMsg     string
	ended         bool
}

// Context returns the span's propagated identity; the zero SpanContext
// on a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID is the hex trace identifier, "" on a nil span — the join key
// logs, exemplars and SSE payloads carry.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// Sampled reports whether the span's trace is selected for export.
func (s *Span) Sampled() bool { return s != nil && s.sc.Sampled }

// SetAttr appends attributes, bounded by the tracer's MaxAttrsPerSpan.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	room := s.tracer.cfg.MaxAttrsPerSpan - len(s.attrs)
	if room <= 0 {
		return
	}
	if len(attrs) > room {
		attrs = attrs[:room]
	}
	s.attrs = append(s.attrs, attrs...)
}

// Event records one timestamped event, bounded by the tracer's
// MaxEventsPerSpan; events beyond the bound are counted as dropped.
// This is the per-trial sampling mechanism: campaign shards record
// trial events until the span's budget is spent.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended || len(s.events) >= s.tracer.cfg.MaxEventsPerSpan {
		s.droppedEvents++
		s.tracer.eventsDropped.Inc()
		return
	}
	s.events = append(s.events, Event{Name: name, Time: time.Now(), Attrs: attrs})
}

// EventRoom reports how many more events the span will accept —
// instrumented loops can skip building attributes once the budget is
// spent.
func (s *Span) EventRoom() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return 0
	}
	return s.tracer.cfg.MaxEventsPerSpan - len(s.events)
}

// SetStatus records how the operation ended. Error status survives a
// later OK (first error wins).
func (s *Span) SetStatus(code Status, msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status == StatusError {
		return
	}
	s.status, s.statusMsg = code, msg
}

// End finishes the span. The first End wins; later calls are no-ops.
// When the last open span of a trace ends, the trace moves to the
// flight recorder and, if sampled, to the exporter.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with an explicit end time, for an operation whose work
// finished before the span could be closed.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = end
	s.mu.Unlock()
	s.tracer.spanEnded(s.trace)
}

// liveTrace is one in-flight trace: its spans and the open-span
// refcount that decides completion.
type liveTrace struct {
	id      TraceID
	sampled bool
	start   time.Time

	mu           sync.Mutex
	spans        []*Span
	open         int
	droppedSpans int
	done         bool
}

// Config parameterises a Tracer. The zero value selects sensible
// defaults: always sample, 64 recorded traces, 256 spans per trace,
// 16 events per span.
type Config struct {
	// Service names the producer in OTLP resource attributes and trace
	// listings. Defaults to "etap".
	Service string
	// SampleRatio selects the fraction of traces exported over OTLP,
	// decided deterministically from the trace ID (W3C style), so every
	// process samples the same traces. 0 means 1 (export everything);
	// negative means export nothing. The flight recorder is always on
	// regardless.
	SampleRatio float64
	// MaxRecorded bounds the flight-recorder ring of completed traces;
	// 0 means 64. The recorder is the post-mortem surface behind
	// GET /traces: it keeps the most recent completed traces even when
	// export sampling is off.
	MaxRecorded int
	// MaxLive bounds concurrently live traces; 0 means 256. Starting a
	// trace beyond the bound silently yields no-op spans (counted as
	// dropped) rather than growing without bound.
	MaxLive int
	// MaxSpansPerTrace bounds spans recorded per trace; 0 means 256.
	MaxSpansPerTrace int
	// MaxEventsPerSpan bounds events per span — the per-trial sampling
	// budget; 0 means 16.
	MaxEventsPerSpan int
	// MaxAttrsPerSpan bounds attributes per span; 0 means 32.
	MaxAttrsPerSpan int
	// OTLPURL, when set, pushes every sampled completed trace to an
	// OTLP/HTTP JSON collector ("http://host:4318"; the standard
	// /v1/traces path is appended when absent). Export is asynchronous
	// with retry/backoff; traces that cannot be delivered are dropped
	// and counted, never blocking the request path.
	OTLPURL string
	// Registry receives the tracer's drop/export counters; nil means
	// obs.Default().
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Service == "" {
		c.Service = "etap"
	}
	if c.SampleRatio == 0 {
		c.SampleRatio = 1
	}
	if c.MaxRecorded <= 0 {
		c.MaxRecorded = 64
	}
	if c.MaxLive <= 0 {
		c.MaxLive = 256
	}
	if c.MaxSpansPerTrace <= 0 {
		c.MaxSpansPerTrace = 256
	}
	if c.MaxEventsPerSpan <= 0 {
		c.MaxEventsPerSpan = 16
	}
	if c.MaxAttrsPerSpan <= 0 {
		c.MaxAttrsPerSpan = 32
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// Tracer creates spans, tracks live traces, owns the flight recorder
// and drives the optional OTLP exporter. All methods are safe for
// concurrent use and safe on a nil receiver (spans become no-ops), so
// a service can run untraced without conditional code.
type Tracer struct {
	cfg Config

	mu   sync.Mutex
	live map[TraceID]*liveTrace
	ring []*TraceData // completed traces, oldest first

	exporter *exporter

	spansStarted  *obs.Counter
	spansDropped  *obs.Counter
	eventsDropped *obs.Counter
	tracesDone    *obs.Counter
}

// New builds a tracer. Close it on shutdown when OTLP export is
// configured, so queued traces flush.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{
		cfg:  cfg,
		live: make(map[TraceID]*liveTrace),
		spansStarted: cfg.Registry.Counter("etap_trace_spans_total",
			"Spans started across all traces."),
		spansDropped: cfg.Registry.Counter("etap_trace_spans_dropped_total",
			"Spans dropped by the per-trace or live-trace bounds."),
		eventsDropped: cfg.Registry.Counter("etap_trace_events_dropped_total",
			"Span events dropped by the per-span event budget."),
		tracesDone: cfg.Registry.Counter("etap_trace_traces_completed_total",
			"Traces whose spans all finished (flight-recorded)."),
	}
	if cfg.OTLPURL != "" {
		t.exporter = newExporter(cfg.OTLPURL, cfg.Registry)
	}
	return t
}

// Close flushes and stops the OTLP exporter, if any. The tracer stays
// usable for recording afterwards (new sampled traces are just no
// longer exported).
func (t *Tracer) Close() error {
	if t == nil || t.exporter == nil {
		return nil
	}
	t.exporter.close()
	return nil
}

// ctxKey keys the span and remote-parent context values.
type ctxKey int

const (
	spanKey ctxKey = iota
	remoteKey
)

// Start begins a child of the span ctx carries, using that span's
// tracer. Without a span in ctx it is a no-op (ctx unchanged, nil
// span). Instrumented libraries (campaign, exp) use this form so only
// tracer-owning layers — the server — decide whether tracing is on.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	p := FromContext(ctx)
	if p == nil {
		return ctx, nil
	}
	return p.tracer.Start(ctx, name, attrs...)
}

// ContextWithSpan returns a context carrying the span; Start uses it as
// the parent for child spans.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, s)
}

// FromContext returns the span the context carries, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// ContextWithRemote returns a context carrying a remote parent span
// context (a parsed traceparent header). Start of a root span then
// joins the remote trace instead of minting a new ID.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// remoteFromContext returns the remote parent, if any.
func remoteFromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(remoteKey).(SpanContext)
	return sc, ok
}

func randTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return id
}

func randSpanID() SpanID {
	var id SpanID
	if _, err := rand.Read(id[:]); err != nil {
		panic(err)
	}
	return id
}

// sampleFromID decides export sampling deterministically from the
// trace ID, so retries and sibling processes agree.
func sampleFromID(id TraceID, ratio float64) bool {
	if ratio >= 1 {
		return true
	}
	if ratio <= 0 {
		return false
	}
	v := binary.BigEndian.Uint64(id[8:])
	return float64(v) < ratio*float64(^uint64(0))
}

// Start begins a span. The parent is resolved from ctx: a local span
// continues its trace, a remote parent (traceparent) joins the remote
// trace, and neither starts a new trace with a fresh sampling decision.
// The returned context carries the new span for further nesting. On a
// nil tracer both returns degrade gracefully (ctx unchanged, nil span).
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var (
		lt     *liveTrace
		parent SpanID
		sc     SpanContext
	)
	if p := FromContext(ctx); p != nil && p.tracer == t {
		lt = p.trace
		parent = p.sc.SpanID
		sc = SpanContext{TraceID: p.sc.TraceID, Sampled: p.sc.Sampled}
	} else if remote, ok := remoteFromContext(ctx); ok {
		sc = SpanContext{TraceID: remote.TraceID, Sampled: remote.Sampled}
		parent = remote.SpanID
	} else {
		id := randTraceID()
		sc = SpanContext{TraceID: id, Sampled: sampleFromID(id, t.cfg.SampleRatio)}
	}
	if lt == nil {
		lt = t.startTrace(sc)
		if lt == nil { // live-trace bound hit
			t.spansDropped.Inc()
			return ctx, nil
		}
	}
	sc.SpanID = randSpanID()
	s := &Span{
		tracer: t,
		trace:  lt,
		sc:     sc,
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	s.attrs = append(s.attrs, attrs...)

	lt.mu.Lock()
	if lt.done || len(lt.spans) >= t.cfg.MaxSpansPerTrace {
		// The trace already completed (a late child raced the last End)
		// or is full: record nothing, but keep the span usable so the
		// caller's End/SetAttr calls stay safe. Completion bookkeeping
		// skips it via trace == nil.
		lt.droppedSpans++
		lt.mu.Unlock()
		t.spansDropped.Inc()
		s.trace = nil
		return ContextWithSpan(ctx, s), s
	}
	lt.spans = append(lt.spans, s)
	lt.open++
	lt.mu.Unlock()
	t.spansStarted.Inc()
	return ContextWithSpan(ctx, s), s
}

// startTrace registers a new live trace, honouring the MaxLive bound.
func (t *Tracer) startTrace(sc SpanContext) *liveTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.live[sc.TraceID]; ok {
		return prev // remote parent re-entering an already-open trace
	}
	if len(t.live) >= t.cfg.MaxLive {
		return nil
	}
	lt := &liveTrace{id: sc.TraceID, sampled: sc.Sampled, start: time.Now()}
	t.live[sc.TraceID] = lt
	return lt
}

// spanEnded decrements the trace's open count and completes the trace
// when it hits zero.
func (t *Tracer) spanEnded(lt *liveTrace) {
	if lt == nil {
		return // span was dropped at start; nothing to account
	}
	lt.mu.Lock()
	lt.open--
	complete := lt.open == 0 && !lt.done
	if complete {
		lt.done = true
	}
	lt.mu.Unlock()
	if !complete {
		return
	}
	td := snapshotTrace(lt)
	t.mu.Lock()
	delete(t.live, lt.id)
	t.ring = append(t.ring, td)
	if len(t.ring) > t.cfg.MaxRecorded {
		t.ring = t.ring[len(t.ring)-t.cfg.MaxRecorded:]
	}
	t.mu.Unlock()
	t.tracesDone.Inc()
	if lt.sampled && t.exporter != nil {
		t.exporter.enqueue(td)
	}
}
