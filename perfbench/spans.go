package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	obstrace "etap/internal/obs/trace"
)

// spanLog keeps every completed trace of a traced run in memory: the
// benchmark's own spans around each layer call, the campaign.point and
// campaign.shard spans the engine opens under them, and, for
// service-mix, the server's job traces fetched from GET /traces/{id}.
// A nil *spanLog is the untraced run: roots are plain contexts.
type spanLog struct {
	tr     *obstrace.Tracer
	mu     sync.Mutex
	traces []*obstrace.TraceData
}

func newSpanLog() *spanLog {
	return &spanLog{tr: obstrace.New(obstrace.Config{
		Service:          "perfbench",
		SampleRatio:      -1, // nothing is exported; the recorder is all we read
		MaxRecorded:      64,
		MaxSpansPerTrace: 4096,
	})}
}

// root opens a new trace (one per job, point or set-up) and returns a
// function that ends it and moves the completed trace into the log.
func (l *spanLog) root(ctx context.Context, name string, attrs ...obstrace.Attr) (context.Context, func()) {
	if l == nil {
		return ctx, func() {}
	}
	ctx, sp := l.tr.Start(ctx, name, attrs...)
	return ctx, func() {
		sp.End()
		if td := l.tr.Get(sp.TraceID()); td != nil {
			l.add(td)
		}
	}
}

func (l *spanLog) add(td *obstrace.TraceData) {
	l.mu.Lock()
	l.traces = append(l.traces, td)
	l.mu.Unlock()
}

// span times one layer call as a child of ctx's span; a no-op without a
// traced root above it.
func span(ctx context.Context, name string, fn func(ctx context.Context)) {
	ctx, sp := obstrace.Start(ctx, name)
	fn(ctx)
	sp.End()
}

// all returns every recorded span.
func (l *spanLog) all() []obstrace.SpanData {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obstrace.SpanData
	for _, td := range l.traces {
		out = append(out, td.Spans...)
	}
	return out
}

// durations lists the durations (ms) of every span with the name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.all() {
		if s.Name == name {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}

// workerIdle is the idle share of worker time inside campaign.point
// spans: point wall time × workers minus the point's shard time, over
// point wall time × workers.
func (l *spanLog) workerIdle(workers int) float64 {
	spans := l.all()
	shardTime := map[string]float64{}
	for _, s := range spans {
		if s.Name == "campaign.shard" {
			shardTime[s.ParentID] += ms(s.End.Sub(s.Start))
		}
	}
	var capacity, busy float64
	for _, s := range spans {
		if s.Name == "campaign.point" {
			capacity += ms(s.End.Sub(s.Start)) * float64(workers)
			busy += shardTime[s.SpanID]
		}
	}
	if capacity == 0 {
		return 0
	}
	return (capacity - busy) / capacity
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes folds every trace into per-name totals. A span's self time
// is its duration minus the part of it its children cover (children may
// overlap, as parallel shards do).
func (l *spanLog) selfTimes() []layerTime {
	l.mu.Lock()
	traces := append([]*obstrace.TraceData(nil), l.traces...)
	l.mu.Unlock()
	acc := map[string]*layerTime{}
	for _, td := range traces {
		kids := map[string][]obstrace.SpanData{}
		for _, s := range td.Spans {
			kids[s.ParentID] = append(kids[s.ParentID], s)
		}
		for _, s := range td.Spans {
			lt := acc[s.Name]
			if lt == nil {
				lt = &layerTime{Name: s.Name}
				acc[s.Name] = lt
			}
			dur := s.End.Sub(s.Start)
			lt.Count++
			lt.TotalMS += ms(dur)
			lt.SelfMS += ms(dur - covered(s, kids[s.SpanID]))
		}
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent obstrace.SpanData, kids []obstrace.SpanData) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// write prints the self-time table to w and saves every span, plus the
// table, as JSON under dir. Spans stay in memory until this call.
func (l *spanLog) write(w io.Writer, dir, workload string, seed int64) error {
	table := l.selfTimes()
	fmt.Fprintf(w, "-- self time per layer (%s, traced pass)\n", workload)
	fmt.Fprintf(w, "  %-28s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range table {
		fmt.Fprintf(w, "  %-28s %7d %12.1f %12.1f\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	payload := struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Layers   []layerTime           `json:"layers"`
		Traces   []*obstrace.TraceData `json:"traces"`
	}{workload, seed, table, l.traces}
	data, err := json.Marshal(payload)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-spans-%s-seed%d.json", workload, seed))
	fmt.Fprintf(w, "  spans written to %s\n", path)
	return os.WriteFile(path, data, 0o644)
}
