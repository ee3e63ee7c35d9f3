package campaign_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"etap/internal/campaign"
	"etap/internal/obs"
	obstrace "etap/internal/obs/trace"
)

// TestPointSpanAsRootKeepsResultAttrs: when a point span outlives every
// other span of its trace, the trace completes as that span ends. It
// must still carry the result attributes, which are known only once the
// point is folded, and end when the point's last shard span ends.
func TestPointSpanAsRootKeepsResultAttrs(t *testing.T) {
	e := loopEngine(t)
	tracer := obstrace.New(obstrace.Config{Registry: obs.NewRegistry()})
	defer tracer.Close()
	ctx, caller := tracer.Start(context.Background(), "caller")
	// The caller's span ends with the first folded trial, leaving the
	// point span as the trace's root.
	var once sync.Once
	r := e.RunPoint(ctx, campaign.Point{Errors: 1, MaxTrials: 64, Workers: 2},
		func(int, campaign.Trial) { once.Do(caller.End) })

	td := tracer.Get(caller.TraceID())
	if td == nil {
		t.Fatal("trace did not complete when RunPoint returned")
	}
	var point *obstrace.SpanData
	var lastShard time.Time
	for i, sp := range td.Spans {
		switch sp.Name {
		case "campaign.point":
			point = &td.Spans[i]
		case "campaign.shard":
			if sp.End.After(lastShard) {
				lastShard = sp.End
			}
		}
	}
	if point == nil || lastShard.IsZero() {
		t.Fatalf("trace lacks the point span or its shard spans: %+v", td.Spans)
	}
	attrs := map[string]any{}
	for _, a := range point.Attrs {
		attrs[a.Key] = a.Value
	}
	want := map[string]any{"trials_run": int64(r.Trials), "stopped_early": false, "cancelled": false}
	for k, v := range want {
		if got, ok := attrs[k]; !ok || got != v {
			t.Errorf("point span attr %s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if !point.End.Equal(lastShard) {
		t.Errorf("point span ends at %v, its last shard span at %v", point.End, lastShard)
	}
}
