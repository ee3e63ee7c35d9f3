package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	obstrace "etap/internal/obs/trace"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// runTiny runs one workload at a tiny size and returns its report.
func runTiny(t *testing.T, name string, seed int64, trace bool) *report {
	t.Helper()
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	o := options{seed: seed, seconds: 0.2, trace: trace, outDir: t.TempDir()}
	rep := newReport(name, o)
	if err := w.run(context.Background(), o, rep); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.failures) > 0 || rep.failed > 0 {
		t.Fatalf("%s: checks failed: %v", name, rep.failures)
	}
	return rep
}

// TestEveryMetricEmitted runs each workload untraced and traced at tiny
// sizes and checks that every metric BENCHMARK.json names comes out
// once, finite, with its declared unit, and that the workload list
// matches.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := runTiny(t, w.name, 3, trace)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got := map[string]row{}
			for _, m := range rep.rows() {
				if _, dup := got[m.name]; dup {
					t.Errorf("%s trace=%v: %s emitted twice", w.name, trace, m.name)
				}
				got[m.name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, m.Name)
				case g.unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, trace, m.Name, g.unit, m.Unit)
				case math.IsNaN(g.value) || math.IsInf(g.value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, g.value)
				}
			}
			if !trace && got["setup_s"].value <= 0 {
				t.Errorf("%s: setup_s %v, want > 0", w.name, got["setup_s"].value)
			}
		}
	}
}

// TestDigestDeterminism pins the results digest: the same seed repeats
// it, and a different seed changes service-mix's generated sources and
// campaign seeds, so its digest moves.
func TestDigestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service workload three times")
	}
	a := runTiny(t, "service-mix", 1, false).digest
	b := runTiny(t, "service-mix", 1, false).digest
	c := runTiny(t, "service-mix", 2, false).digest
	if a != b {
		t.Errorf("same seed, different digests: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 share digest %s", a)
	}
	if h := runTiny(t, "harden-recover", 1, false).digest; h != runTiny(t, "harden-recover", 1, false).digest {
		t.Errorf("harden-recover digest does not repeat for one seed")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{7, 100}, {19, 100}, {20, 50}, {40, 75}, {112, 90}, {200, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vs := []float64{5, 1, 4, 2, 3}
	if p := percentile(vs, 50); p != 3 {
		t.Errorf("p50 = %v, want 3", p)
	}
	if p := percentile(vs, 100); p != 5 {
		t.Errorf("p100 = %v, want 5", p)
	}
}

// TestSelfTime checks that overlapping children are counted once.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := obstrace.SpanData{SpanID: "p", Name: "point", Start: at(0), End: at(100)}
	kids := []obstrace.SpanData{
		{SpanID: "a", ParentID: "p", Name: "shard", Start: at(10), End: at(60)},
		{SpanID: "b", ParentID: "p", Name: "shard", Start: at(40), End: at(80)},
		{SpanID: "c", ParentID: "p", Name: "shard", Start: at(90), End: at(120)},
	}
	if got := covered(parent, kids); got != 80*time.Millisecond {
		t.Errorf("covered = %v, want 80ms", got)
	}
	l := &spanLog{traces: []*obstrace.TraceData{{Spans: append([]obstrace.SpanData{parent}, kids...)}}}
	for _, lt := range l.selfTimes() {
		if lt.Name == "point" && math.Abs(lt.SelfMS-20) > 1e-9 {
			t.Errorf("point self time %v ms, want 20", lt.SelfMS)
		}
	}
	if idle := l.workerIdle(2); idle != 0 {
		t.Errorf("workerIdle with no campaign spans = %v, want 0", idle)
	}
}
