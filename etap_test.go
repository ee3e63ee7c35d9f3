package etap

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

const testSource = `
char data[64];

tolerant void scale(char *p, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        p[i] = p[i] * 2;
    }
}

int main() {
    int i;
    for (i = 0; i < 64; i = i + 1) { data[i] = inb(); }
    scale(data, 64);
    for (i = 0; i < 64; i = i + 1) { outb(data[i]); }
    return 0;
}
`

var bgctx = context.Background()

func testInput() []byte {
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i)
	}
	return in
}

func TestBuildAndRun(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(testInput())
	if res.Outcome != Completed {
		t.Fatalf("outcome %s (%s)", res.Outcome, res.TrapDescription)
	}
	if len(res.Output) != 64 || res.Output[10] != 20 {
		t.Fatalf("output wrong: len %d", len(res.Output))
	}
	if res.Instructions == 0 {
		t.Fatalf("no instructions counted")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("int main() { return x; }", PolicyControl); err == nil {
		t.Fatalf("bad program accepted")
	}
	if _, err := Build("", PolicyControl); err == nil {
		t.Fatalf("empty program accepted")
	}
}

func TestStatsAndListing(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.TextInstructions == 0 || st.TolerantFunctions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.TaggedStatic == 0 {
		t.Fatalf("nothing tagged in a tolerant program")
	}
	if st.TaggedStatic+st.ControlSliceStatic > st.TextInstructions {
		t.Fatalf("tag/control sets overlap: %+v", st)
	}
	listing := sys.Listing()
	for _, want := range []string{"scale: tolerant", "main:", "  T  ", "  C  ", "["} {
		if !strings.Contains(listing, want) {
			t.Fatalf("listing missing %q", want)
		}
	}
}

func TestCampaignInjection(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign(testInput(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.CleanOutput()) != 64 {
		t.Fatalf("clean output length %d", len(camp.CleanOutput()))
	}
	if f := camp.LowReliabilityFraction(); f <= 0 || f >= 1 {
		t.Fatalf("low-rel fraction %f", f)
	}
	res := camp.Run(2, 1)
	if res.Outcome != Completed {
		t.Fatalf("protected 2-error run %s (%s)", res.Outcome, res.TrapDescription)
	}
	if res.InjectedErrors != 2 {
		t.Fatalf("injected %d", res.InjectedErrors)
	}
	// A negative error count degrades to a clean run, not a panic.
	if r := camp.Run(-1, 1); r.Outcome != Completed || r.InjectedErrors != 0 {
		t.Fatalf("negative error count: %s with %d injections", r.Outcome, r.InjectedErrors)
	}

	// Determinism.
	res2 := camp.Run(2, 1)
	if string(res.Output) != string(res2.Output) {
		t.Fatalf("same seed produced different outputs")
	}
	// Different seed (usually) different corruption; at minimum it must
	// not crash the protected pixel math.
	res3 := camp.Run(2, 99)
	if res3.Outcome != Completed {
		t.Fatalf("seed 99 run %s", res3.Outcome)
	}
}

func TestUnprotectedCampaign(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	on, err := sys.NewCampaign(testInput(), true)
	if err != nil {
		t.Fatal(err)
	}
	off, err := sys.NewCampaign(testInput(), false)
	if err != nil {
		t.Fatal(err)
	}
	// The unprotected eligible stream strictly contains the protected one.
	if on.LowReliabilityFraction() >= off.LowReliabilityFraction() {
		t.Fatalf("protected fraction %.3f >= unprotected %.3f",
			on.LowReliabilityFraction(), off.LowReliabilityFraction())
	}
}

func TestCampaignRunPoint(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign(testInput(), true)
	if err != nil {
		t.Fatal(err)
	}
	camp.SetScore(func(golden, corrupted []byte) (float64, bool) {
		match := 0
		for i := range golden {
			if i < len(corrupted) && golden[i] == corrupted[i] {
				match++
			}
		}
		v := 100 * float64(match) / float64(len(golden))
		return v, v >= 90
	})

	clean := camp.RunPoint(bgctx, 0, WithTrials(8), WithSeed(3))
	if clean.Trials != 8 || clean.Masked != 8 || clean.AcceptPct != 100 || clean.FailPct != 0 {
		t.Fatalf("zero-error point: %+v", clean)
	}

	p := camp.RunPoint(bgctx, 2, WithTrials(24), WithSeed(3), WithWorkers(1))
	if p.Trials != 24 || p.Completed+p.Crashes+p.Timeouts != p.Trials {
		t.Fatalf("accounting: %+v", p)
	}
	if p.FailLowPct > p.FailPct || p.FailPct > p.FailHighPct {
		t.Fatalf("Wilson interval [%.2f, %.2f] does not bracket %.2f",
			p.FailLowPct, p.FailHighPct, p.FailPct)
	}
	// Worker count must not change the numbers.
	p2 := camp.RunPoint(bgctx, 2, WithTrials(24), WithSeed(3), WithWorkers(5))
	if p != p2 {
		t.Fatalf("points differ across worker counts:\n%+v\n%+v", p, p2)
	}

	sweep := camp.Sweep(bgctx, []int{0, 2}, WithTrials(8), WithSeed(3))
	if len(sweep) != 2 || sweep[0].Errors != 0 || sweep[1].Errors != 2 {
		t.Fatalf("sweep shape: %+v", sweep)
	}
}

func TestBenchmarksRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 7 {
		t.Fatalf("%d benchmarks", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.Name()] = true
		if b.Title() == "" || b.FidelityName() == "" || b.Source() == "" || len(b.Input()) == 0 {
			t.Fatalf("benchmark %s incomplete", b.Name())
		}
	}
	for _, want := range []string{"susan", "mpeg", "mcf", "blowfish", "gsm", "art", "adpcm"} {
		if !names[want] {
			t.Fatalf("missing benchmark %s", want)
		}
	}
	if _, ok := BenchmarkByName("nosuch"); ok {
		t.Fatalf("unknown benchmark resolved")
	}
	b, ok := BenchmarkByName("adpcm")
	if !ok {
		t.Fatalf("adpcm missing")
	}
	if v, acceptable := b.Score([]byte{1, 2}, []byte{1, 2}); v != 100 || !acceptable {
		t.Fatalf("identical score %f/%v", v, acceptable)
	}
}

func TestBenchmarkBuildAndInject(t *testing.T) {
	b, _ := BenchmarkByName("adpcm")
	sys, err := b.Build(PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign(b.Input(), true)
	if err != nil {
		t.Fatal(err)
	}
	// ADPCM's predictor is recursive, so a single early flip can shift the
	// whole decoded stream: fidelity varies hugely by seed. The invariants
	// are that protected runs complete and scores stay in range.
	best := 0.0
	for seed := int64(1); seed <= 6; seed++ {
		res := camp.Run(3, seed)
		if res.Outcome != Completed {
			t.Fatalf("seed %d: run %s (%s)", seed, res.Outcome, res.TrapDescription)
		}
		v, _ := b.Score(camp.CleanOutput(), res.Output)
		if v < 0 || v > 100 {
			t.Fatalf("seed %d: fidelity %f out of range", seed, v)
		}
		if v > best {
			best = v
		}
	}
	if best < 50 {
		t.Fatalf("every seed collapsed fidelity (best %.1f%%); injection is likely broken", best)
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"table1", "table2", "table3", "figure1", "figure2", "figure3", "figure4", "figure5", "figure6", "ablation", "potential", "bits", "masking", "availability"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v", ids)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyControl.String() != "control" ||
		PolicyControlAddr.String() != "control+addr" ||
		PolicyConservative.String() != "conservative" {
		t.Fatalf("policy strings: %s %s %s", PolicyControl, PolicyControlAddr, PolicyConservative)
	}
}

func TestOutcomeStrings(t *testing.T) {
	if Completed.String() != "completed" || Crashed.String() != "crashed" || TimedOut.String() != "timed out" ||
		Detected.String() != "detected" {
		t.Fatalf("outcome strings wrong")
	}
}

func TestHardenedSystem(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Harden(HardenOptions{}); err == nil {
		t.Fatalf("Harden accepted empty options")
	}
	h, err := sys.Harden(DefaultHardenOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Zero-fault equivalence through the public API.
	base, hard := sys.Run(testInput()), h.Run(testInput())
	if hard.Outcome != Completed || string(hard.Output) != string(base.Output) || hard.ExitCode != base.ExitCode {
		t.Fatalf("hardened run diverged: %s, %d output bytes", hard.Outcome, len(hard.Output))
	}

	if so := h.StaticOverhead(); so <= 1 {
		t.Fatalf("static overhead %.2f", so)
	}
	if do := h.DynamicOverhead(testInput()); do <= 1 {
		t.Fatalf("dynamic overhead %.2f", do)
	}
	if h.ProtectedSites() == 0 {
		t.Fatalf("no protected sites duplicated")
	}
	if h.MapToOriginal(-1) != -1 || h.MapToOriginal(1<<30) != -1 {
		t.Fatalf("MapToOriginal out-of-range handling")
	}

	// The detection campaign injects into protected primaries only; with
	// real redundancy a healthy share of those faults must be caught.
	camp, err := h.NewDetectionCampaign(testInput())
	if err != nil {
		t.Fatal(err)
	}
	pt := camp.RunPoint(bgctx, 1, WithTrials(48), WithSeed(7))
	if pt.Trials == 0 {
		t.Fatalf("no trials ran")
	}
	if pt.Detected == 0 {
		t.Fatalf("no faults detected over %d trials: %+v", pt.Trials, pt)
	}
	if pt.DetectPct <= 0 || pt.DetectLowPct > pt.DetectPct || pt.DetectHighPct < pt.DetectPct {
		t.Fatalf("detection CI inconsistent: %+v", pt)
	}
	if pt.Detected+pt.Crashes+pt.Timeouts+pt.Completed != pt.Trials {
		t.Fatalf("outcome counts do not partition trials: %+v", pt)
	}

	// The hardened system is a full System: ordinary protected campaigns
	// still work on it.
	pc, err := h.NewCampaign(testInput(), true)
	if err != nil {
		t.Fatal(err)
	}
	if r := pc.Run(1, 3); r.Outcome == Crashed && r.TrapDescription == "" {
		t.Fatalf("crash without trap description")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	es := Experiments()
	if len(es) != len(ExperimentIDs()) {
		t.Fatalf("%d experiments for %d ids", len(es), len(ExperimentIDs()))
	}
	for _, e := range es {
		if e.ID == "" || e.Title == "" {
			t.Fatalf("experiment incompletely registered: %+v", e)
		}
	}
	e, ok := ExperimentByID("table1")
	if !ok {
		t.Fatalf("table1 not registered")
	}
	r, err := e.Run(bgctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table1" || len(r.Rows) != 7 || len(r.Columns) == 0 {
		t.Fatalf("table1 report: %+v", r)
	}
	if !strings.Contains(r.RenderText(), "susan") {
		t.Fatalf("table1 render missing susan")
	}
	if _, ok := ExperimentByID("nosuch"); ok {
		t.Fatalf("unknown experiment resolved")
	}
}

func TestCampaignContextCancellation(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign(testInput(), true)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := camp.RunPoint(cctx, 2, WithTrials(64), WithSeed(3))
	if !p.Cancelled || p.Trials != 0 {
		t.Fatalf("pre-cancelled point: %+v", p)
	}
	// Sweep under a cancelled context returns no points.
	if pts := camp.Sweep(cctx, []int{1, 2}, WithTrials(8)); len(pts) != 0 {
		t.Fatalf("cancelled sweep ran %d points", len(pts))
	}
	// The campaign is unharmed: a live-context run matches a fresh one.
	a := camp.RunPoint(bgctx, 2, WithTrials(16), WithSeed(3))
	b := camp.RunPoint(bgctx, 2, WithTrials(16), WithSeed(3))
	if math.IsNaN(a.MeanValue) && math.IsNaN(b.MeanValue) {
		a.MeanValue, b.MeanValue = 0, 0
	}
	if a.Cancelled || a != b {
		t.Fatalf("post-cancel runs diverge: %+v vs %+v", a, b)
	}
}

func TestWithProgressStreamsTrials(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign(testInput(), true)
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	p := camp.RunPoint(bgctx, 1, WithTrials(12), WithSeed(5), WithProgress(func(e ProgressEvent) {
		events = append(events, e)
	}))
	if len(events) != p.Trials {
		t.Fatalf("progress saw %d events for %d trials", len(events), p.Trials)
	}
	for i, e := range events {
		if e.Trial != i {
			t.Fatalf("event %d has trial index %d", i, e.Trial)
		}
		if e.Instructions == 0 {
			t.Fatalf("event %d has no instruction count", i)
		}
		if e.Shard < 0 {
			t.Fatalf("event %d has negative shard", i)
		}
	}
}

func TestDetectionLatencySurfaced(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Harden(DefaultHardenOptions())
	if err != nil {
		t.Fatal(err)
	}
	camp, err := h.NewDetectionCampaign(testInput())
	if err != nil {
		t.Fatal(err)
	}
	pt := camp.RunPoint(bgctx, 1, WithTrials(64), WithSeed(7))
	if pt.Detected == 0 {
		t.Fatalf("no detections; latency untestable: %+v", pt)
	}
	if pt.DetectLatencyP50 == 0 || pt.DetectLatencyP95 < pt.DetectLatencyP50 {
		t.Fatalf("implausible detection latency percentiles: %+v", pt)
	}
}

// TestDynamicOverheadCached: repeated calls must not re-simulate — the
// second call with the same input returns the identical cached ratio,
// and concurrent callers race safely.
func TestDynamicOverheadCached(t *testing.T) {
	sys, err := Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Harden(DefaultHardenOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := testInput()
	first := h.DynamicOverhead(in)
	if first <= 1 {
		t.Fatalf("dynamic overhead %.2f", first)
	}
	var wg sync.WaitGroup
	results := make([]float64, 8)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = h.DynamicOverhead(in)
		}()
	}
	wg.Wait()
	for i, r := range results {
		if r != first {
			t.Fatalf("call %d returned %.4f, first returned %.4f", i, r, first)
		}
	}
}

func TestLabCachesBuilds(t *testing.T) {
	lab := NewLab()
	s1, err := lab.Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := lab.Build(testSource, PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("same key built twice")
	}
	s3, err := lab.Build(testSource, PolicyControl)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatalf("different policy shared a cache entry")
	}
	if lab.Len() != 2 {
		t.Fatalf("lab holds %d entries", lab.Len())
	}

	h1, err := lab.Harden(testSource, PolicyControlAddr, DefaultHardenOptions())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := lab.Harden(testSource, PolicyControlAddr, DefaultHardenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same harden key built twice")
	}

	if _, err := lab.Build("int main() { return x; }", PolicyControl); err == nil {
		t.Fatalf("bad program accepted")
	}
	// Errors are cached too: the same bad source fails again, cheaply.
	if _, err := lab.Build("int main() { return x; }", PolicyControl); err == nil {
		t.Fatalf("bad program accepted on second lookup")
	}
	if _, err := lab.BuildBenchmark("nosuch", PolicyControl); err == nil {
		t.Fatalf("unknown benchmark accepted")
	}
	if _, err := lab.BuildBenchmark("adpcm", PolicyControlAddr); err != nil {
		t.Fatal(err)
	}
}

// TestLabConcurrentSingleBuild: concurrent requests for one key must
// produce one System, exercised under -race.
func TestLabConcurrentSingleBuild(t *testing.T) {
	lab := NewLab()
	var wg sync.WaitGroup
	systems := make([]*System, 8)
	for i := range systems {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := lab.Build(testSource, PolicyControlAddr)
			if err != nil {
				t.Error(err)
				return
			}
			systems[i] = s
		}()
	}
	wg.Wait()
	for i := 1; i < len(systems); i++ {
		if systems[i] != systems[0] {
			t.Fatalf("concurrent builds returned distinct systems")
		}
	}
}
