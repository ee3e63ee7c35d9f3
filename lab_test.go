package etap

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"etap/internal/server"
)

// labSources returns n distinct compilable programs, so each occupies
// its own Lab key.
func labSources(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`
tolerant int scale(int x) { return x * %d; }
int main() { outb(scale(inb())); return 0; }
`, i+2)
	}
	return out
}

func TestLabLRUEviction(t *testing.T) {
	lab := NewLabCapacity(2)
	srcs := labSources(3)

	if _, err := lab.Build(srcs[0], PolicyControlAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Build(srcs[1], PolicyControlAddr); err != nil {
		t.Fatal(err)
	}
	if got := lab.Len(); got != 2 {
		t.Fatalf("lab holds %d entries, want 2", got)
	}
	// Touch srcs[0] so srcs[1] is the LRU victim.
	if _, err := lab.Build(srcs[0], PolicyControlAddr); err != nil {
		t.Fatal(err)
	}
	if got := lab.Builds(); got != 2 {
		t.Fatalf("cache hit recompiled: %d builds, want 2", got)
	}
	// Inserting a third key must evict exactly one entry.
	if _, err := lab.Build(srcs[2], PolicyControlAddr); err != nil {
		t.Fatal(err)
	}
	if got := lab.Len(); got != 2 {
		t.Fatalf("lab holds %d entries after eviction, want 2", got)
	}
	// srcs[0] was recently used and must still be cached...
	if _, err := lab.Build(srcs[0], PolicyControlAddr); err != nil {
		t.Fatal(err)
	}
	if got := lab.Builds(); got != 3 {
		t.Fatalf("recently-used entry was evicted: %d builds, want 3", got)
	}
	// ...while srcs[1] was evicted and recompiles on miss.
	s, err := lab.Build(srcs[1], PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("recompile on miss returned nil system")
	}
	if got := lab.Builds(); got != 4 {
		t.Fatalf("evicted entry did not recompile: %d builds, want 4", got)
	}
}

func TestLabHitAndEvictionCounters(t *testing.T) {
	lab := NewLabCapacity(2)
	srcs := labSources(3)
	for _, src := range srcs[:2] {
		if _, err := lab.Build(src, PolicyControlAddr); err != nil {
			t.Fatal(err)
		}
	}
	if got := lab.Hits(); got != 0 {
		t.Fatalf("cold cache reported %d hits, want 0", got)
	}
	if _, err := lab.Build(srcs[0], PolicyControlAddr); err != nil {
		t.Fatal(err)
	}
	if got := lab.Hits(); got != 1 {
		t.Fatalf("cache hit count = %d, want 1", got)
	}
	if got := lab.Evictions(); got != 0 {
		t.Fatalf("evictions before overflow = %d, want 0", got)
	}
	if _, err := lab.Build(srcs[2], PolicyControlAddr); err != nil {
		t.Fatal(err)
	}
	if got := lab.Evictions(); got != 1 {
		t.Fatalf("evictions after overflow = %d, want 1", got)
	}
}

func TestLabUnboundedCapacity(t *testing.T) {
	lab := NewLabCapacity(0)
	for _, src := range labSources(5) {
		if _, err := lab.Build(src, PolicyControl); err != nil {
			t.Fatal(err)
		}
	}
	if got := lab.Len(); got != 5 {
		t.Fatalf("unbounded lab evicted: %d entries, want 5", got)
	}
}

func TestLabBuildsCounter(t *testing.T) {
	lab := NewLab()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lab.Build(testSource, PolicyControlAddr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := lab.Builds(); got != 1 {
		t.Fatalf("concurrent identical submissions paid %d builds, want 1", got)
	}
	// Harden shares the cached base compile and counts one more build
	// (the rewrite), not two.
	if _, err := lab.Harden(testSource, PolicyControlAddr, DefaultHardenOptions()); err != nil {
		t.Fatal(err)
	}
	if got := lab.Builds(); got != 2 {
		t.Fatalf("harden over a cached base paid %d builds, want 2", got)
	}
}

// sweepReport runs one sweep job on s without the HTTP layer and
// returns its report's JSON.
func sweepReport(t *testing.T, s *Server, req server.SubmitRequest) []byte {
	t.Helper()
	rep, err := s.runSweepJob(context.Background(), &req, func(server.TrialEvent) {})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEngineReuseScoreIdentity: a source job whose text and input equal
// a registered benchmark's gets its own engine, graded bit-exactly, not
// the benchmark job's engine with the benchmark's fidelity measure.
func TestEngineReuseScoreIdentity(t *testing.T) {
	lab := NewLab()
	s, err := NewServer(WithServeLab(lab), WithServeWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b, _ := BenchmarkByName("adpcm")
	sweepReport(t, s, server.SubmitRequest{Benchmark: "adpcm", Errors: []int{1}, Trials: 2})
	sweepReport(t, s, server.SubmitRequest{Source: b.Source(), Input: string(b.Input()), Errors: []int{1}, Trials: 2})
	if got := lab.EngineBuilds(); got != 2 {
		t.Fatalf("benchmark and equal-source jobs built %d engines, want 2", got)
	}
	if got := lab.EngineHits(); got != 0 {
		t.Fatalf("equal-source job hit the benchmark's engine (%d hits)", got)
	}
	lab.mu.Lock()
	defer lab.mu.Unlock()
	for key, e := range lab.entries {
		if !key.engine {
			continue
		}
		if scored := e.eng.Score != nil; scored != (key.score == "adpcm") {
			t.Fatalf("engine for score %q has a fidelity measure: %v", key.score, scored)
		}
	}
}

// TestEngineReuseEviction: an engine the LRU bound evicted is rebuilt
// on its next request, the build counter counts the rebuild, and the
// rebuilt engine serves the same report.
func TestEngineReuseEviction(t *testing.T) {
	lab := NewLabCapacity(2)
	s, err := NewServer(WithServeLab(lab), WithServeWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	unprotected := false
	job := func(src string) server.SubmitRequest {
		return server.SubmitRequest{Source: src, Input: "x", Protected: &unprotected, Errors: []int{1}, Trials: 4}
	}
	srcs := labSources(2)
	first := sweepReport(t, s, job(srcs[0]))
	sweepReport(t, s, job(srcs[1]))
	again := sweepReport(t, s, job(srcs[0]))
	// Each job's system and engine push the previous job's out of the
	// two-entry Lab, so all three jobs build.
	if got := lab.EngineBuilds(); got != 3 {
		t.Fatalf("Lab built %d engines, want 3", got)
	}
	if got := lab.EngineEvictions(); got != 2 {
		t.Fatalf("Lab evicted %d engines, want 2", got)
	}
	if got := lab.EngineHits(); got != 0 {
		t.Fatalf("Lab counted %d engine hits, want 0", got)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("rebuilt engine served a different report:\n%s\nvs\n%s", first, again)
	}
}
