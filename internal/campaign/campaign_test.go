package campaign_test

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/minic"
	"etap/internal/sim"
)

// ctx is the live context shared by tests that never cancel.
var ctx = context.Background()

// buildEngine compiles a benchmark and prepares a protected-mode engine.
func buildEngine(t *testing.T, name string, cfg campaign.Config) (*campaign.Engine, apps.App, sim.Config) {
	t.Helper()
	a, ok := all.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	prog, err := minic.Build(a.Source())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.Config{Input: a.Input()}
	e, err := campaign.New(prog, rep.Tagged, simCfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Score = apps.Scorer(a)
	return e, a, simCfg
}

func resultsEqual(a, b sim.Result) bool {
	return a.Outcome == b.Outcome &&
		a.Trap == b.Trap &&
		a.ExitCode == b.ExitCode &&
		a.Instret == b.Instret &&
		a.EligibleExec == b.EligibleExec &&
		a.Injected == b.Injected &&
		bytes.Equal(a.Output, b.Output) &&
		a.ClassCounts == b.ClassCounts
}

// TestResumeBitIdenticalAllBenchmarks is the determinism contract of the
// checkpoint engine: for every benchmark, a trial resumed from a
// checkpoint produces a bit-identical sim.Result (outcome, output, trap,
// instruction count, class counts) to the same trial run from scratch,
// for injections early, midway and late in the eligible stream.
func TestResumeBitIdenticalAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range all.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, _, simCfg := buildEngine(t, name, campaign.Config{})
			if e.Checkpoints() == 0 {
				t.Fatalf("golden pass of %s (%d instructions) captured no checkpoints", name, e.Clean.Instret)
			}
			stream := e.Clean.EligibleExec
			ordinals := []uint64{1, stream / 4, stream / 2, stream - stream/8, stream}
			for i, at := range ordinals {
				if at < 1 {
					at = 1
				}
				plan := &sim.FaultPlan{
					Eligible:   e.Eligible,
					Injections: []sim.Injection{{At: at, Bit: uint8((i*7 + 3) % 32)}},
				}
				scratchCfg := simCfg
				scratchCfg.Plan = plan
				scratchCfg.MaxInstr = e.Budget
				scratch := sim.Run(e.Prog, scratchCfg)
				resumed := e.RunPlan(plan)
				if !resultsEqual(scratch, resumed) {
					t.Fatalf("%s: ordinal %d/%d: resumed trial differs from scratch\nscratch: outcome=%s trap=%s instret=%d out=%d bytes\nresumed: outcome=%s trap=%s instret=%d out=%d bytes",
						name, at, stream,
						scratch.Outcome, scratch.Trap, scratch.Instret, len(scratch.Output),
						resumed.Outcome, resumed.Trap, resumed.Instret, len(resumed.Output))
				}
			}
		})
	}
}

// TestRunPointReproducibleAcrossWorkers is the shard-RNG contract: the
// aggregate of a point is identical no matter how many workers execute it.
func TestRunPointReproducibleAcrossWorkers(t *testing.T) {
	e, _, _ := buildEngine(t, "adpcm", campaign.Config{ShardSize: 8})
	pt := campaign.Point{Errors: 4, HiBit: 31, MaxTrials: 48, Seed: 7}
	var results []campaign.PointResult
	for _, workers := range []int{1, 3, 8} {
		pt.Workers = workers
		results = append(results, e.RunPoint(ctx, pt, nil))
	}
	for i := 1; i < len(results); i++ {
		if !pointsEqual(results[0], results[i]) {
			t.Fatalf("results differ between worker counts:\n%+v\n%+v", results[0], results[i])
		}
	}
	if r := results[0]; r.Trials != 48 || r.Completed+r.Crashes+r.Timeouts != r.Trials {
		t.Fatalf("bad accounting: %+v", results[0])
	}
}

func pointsEqual(a, b campaign.PointResult) bool {
	na, nb := math.IsNaN(a.MeanValue), math.IsNaN(b.MeanValue)
	if na != nb {
		return false
	}
	if na {
		a.MeanValue, b.MeanValue = 0, 0
	}
	if math.IsNaN(a.ValueStddev) != math.IsNaN(b.ValueStddev) {
		return false
	}
	if math.IsNaN(a.ValueStddev) {
		a.ValueStddev, b.ValueStddev = 0, 0
	}
	return a == b
}

// TestObserverSeesTrialsInOrder checks the deterministic observer stream.
func TestObserverSeesTrialsInOrder(t *testing.T) {
	e, _, _ := buildEngine(t, "adpcm", campaign.Config{ShardSize: 4})
	var indices []int
	var trials []campaign.Trial
	r := e.RunPoint(ctx, campaign.Point{Errors: 2, HiBit: 31, MaxTrials: 24, Seed: 5, Workers: 4}, func(i int, tr campaign.Trial) {
		indices = append(indices, i)
		trials = append(trials, tr)
	})
	if len(indices) != r.Trials {
		t.Fatalf("observer saw %d trials, point reports %d", len(indices), r.Trials)
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("observer indices out of order at %d: %v", i, indices[:i+1])
		}
	}
	// Re-running must replay the identical trial stream.
	var again []campaign.Trial
	e.RunPoint(ctx, campaign.Point{Errors: 2, HiBit: 31, MaxTrials: 24, Seed: 5, Workers: 4}, func(i int, tr campaign.Trial) {
		again = append(again, tr)
	})
	for i := range trials {
		a, b := trials[i], again[i]
		if math.IsNaN(a.Value) && math.IsNaN(b.Value) {
			a.Value, b.Value = 0, 0
		}
		if a != b {
			t.Fatalf("trial %d differs between runs: %+v vs %+v", i, trials[i], again[i])
		}
	}
}

// TestEarlyStopConverges checks that a point with a tight, quickly
// reachable confidence target stops well short of its trial budget, and
// deterministically so.
func TestEarlyStopConverges(t *testing.T) {
	e, _, _ := buildEngine(t, "adpcm", campaign.Config{ShardSize: 16})
	// Zero errors → zero failures; the Wilson upper bound shrinks like
	// z²/n, so width < 0.05 needs ~75 trials out of the 2000 budget.
	pt := campaign.Point{Errors: 0, HiBit: 31, MaxTrials: 2000, StopWidth: 0.05, Seed: 11}
	r1 := e.RunPoint(ctx, pt, nil)
	if !r1.EarlyStopped {
		t.Fatalf("point did not stop early: %+v", r1)
	}
	if r1.Trials >= 2000 || r1.Trials < 32 {
		t.Fatalf("unexpected early-stop trial count %d", r1.Trials)
	}
	if r1.FailHighPct-r1.FailLowPct >= 5 {
		t.Fatalf("stopped with wide interval [%.2f, %.2f]", r1.FailLowPct, r1.FailHighPct)
	}
	pt.Workers = 7
	r2 := e.RunPoint(ctx, pt, nil)
	if !pointsEqual(r1, r2) {
		t.Fatalf("early-stopped results differ across worker counts:\n%+v\n%+v", r1, r2)
	}
}

// TestZeroErrorTrialsMatchClean: with no injections every trial resumes
// from the last checkpoint and must reproduce the golden run.
func TestZeroErrorTrialsMatchClean(t *testing.T) {
	e, _, _ := buildEngine(t, "adpcm", campaign.Config{})
	r := e.RunPoint(ctx, campaign.Point{Errors: 0, HiBit: 31, MaxTrials: 8}, func(i int, tr campaign.Trial) {
		if tr.Outcome != sim.OK || !tr.Masked || tr.Instret != e.Clean.Instret {
			t.Fatalf("zero-error trial %d diverged from clean run: %+v", i, tr)
		}
	})
	if r.FailPct != 0 || r.AcceptPct != 100 || r.Masked != 8 {
		t.Fatalf("zero-error point: %+v", r)
	}
}

// TestSweepMatchesRunPoint is the Sweep contract: a sweep equals one
// RunPoint per point in order, its observer sees every trial tagged with
// the right point index, and a cancel inside a point ends the sweep
// there with that point partial and flagged — at any worker count.
func TestSweepMatchesRunPoint(t *testing.T) {
	e, _, _ := buildEngine(t, "adpcm", campaign.Config{ShardSize: 8})
	for _, workers := range []int{1, 8} {
		tmpl := campaign.Point{HiBit: 31, MaxTrials: 24, Seed: 11, Workers: workers}
		pts := campaign.ErrorPoints(tmpl, []int{1, 3, 6})
		type seen struct{ point, trial int }
		var got []seen
		sweep := e.Sweep(ctx, pts, func(i, trial int, tr campaign.Trial) {
			got = append(got, seen{i, trial})
		})
		if len(sweep) != len(pts) {
			t.Fatalf("workers=%d: sweep returned %d of %d points", workers, len(sweep), len(pts))
		}
		var want []seen
		for i, pt := range pts {
			if r := e.RunPoint(ctx, pt, nil); !pointsEqual(r, sweep[i]) {
				t.Fatalf("workers=%d point %d: sweep differs from RunPoint\n%+v\n%+v", workers, i, sweep[i], r)
			}
			for trial := 0; trial < sweep[i].Trials; trial++ {
				want = append(want, seen{i, trial})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: observer saw %d trials, sweep reports %d", workers, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d: observer call %d was %+v, want %+v", workers, k, got[k], want[k])
			}
		}

		// Cancel inside the second point, whose budget could never finish
		// in the test's lifetime: the sweep stops there.
		cctx, cancel := context.WithCancel(context.Background())
		pts[1].MaxTrials = 1 << 20
		partial := e.Sweep(cctx, pts, func(i, trial int, tr campaign.Trial) {
			if i == 1 && trial == 3 {
				cancel()
			}
		})
		cancel()
		if len(partial) != 2 {
			t.Fatalf("workers=%d: cancelled sweep returned %d points, want 2", workers, len(partial))
		}
		if !pointsEqual(partial[0], sweep[0]) || partial[0].Cancelled {
			t.Fatalf("workers=%d: point before the cancel changed: %+v", workers, partial[0])
		}
		if p := partial[1]; !p.Cancelled || p.Trials < 4 || p.Trials >= pts[1].MaxTrials {
			t.Fatalf("workers=%d: interrupted point not partial and flagged: %+v", workers, p)
		}
	}
}

func TestNewRejectsManagedConfig(t *testing.T) {
	a, _ := all.ByName("adpcm")
	prog, err := minic.Build(a.Source())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.New(prog, rep.Tagged, sim.Config{Input: a.Input(), MaxInstr: 99}, campaign.Config{}); err == nil {
		t.Fatal("MaxInstr accepted")
	}
	if _, err := campaign.New(prog, rep.Tagged[:1], sim.Config{Input: a.Input()}, campaign.Config{}); err == nil {
		t.Fatal("short eligibility mask accepted")
	}
}

// TestCancelledPointReturnsPartialFlagged is the cancellation contract:
// cancelling mid-point stops the campaign promptly (no new trials start;
// in-flight trials finish), and the partial aggregate comes back flagged
// Cancelled with internally consistent accounting.
func TestCancelledPointReturnsPartialFlagged(t *testing.T) {
	e, _, _ := buildEngine(t, "adpcm", campaign.Config{ShardSize: 4})
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from the observer after a handful of trials have aggregated,
	// with a budget far beyond what could run in the test's lifetime.
	const budget = 1 << 20
	seen := 0
	start := time.Now()
	r := e.RunPoint(cctx, campaign.Point{Errors: 2, HiBit: 31, MaxTrials: budget, Seed: 9, Workers: 4},
		func(i int, tr campaign.Trial) {
			seen++
			if seen == 6 {
				cancel()
			}
		})
	elapsed := time.Since(start)

	if !r.Cancelled {
		t.Fatalf("cancelled point not flagged: %+v", r)
	}
	if r.Trials >= budget {
		t.Fatalf("cancelled point ran the whole budget (%d trials)", r.Trials)
	}
	if r.Trials < 6 {
		t.Fatalf("cancelled point lost aggregated trials: %d < 6", r.Trials)
	}
	if r.Completed+r.Crashes+r.Timeouts+r.Detected != r.Trials {
		t.Fatalf("partial accounting inconsistent: %+v", r)
	}
	// "Promptly" here is generous (CI machines vary), but a full budget of
	// ~1M adpcm trials would take hours, so any same-order-of-magnitude
	// bound proves cancellation cut the point short.
	if elapsed > 2*time.Minute {
		t.Fatalf("cancelled point took %s to return", elapsed)
	}
}

// TestCancelledBeforeStartRunsNothing: a context cancelled on entry yields
// an empty, flagged aggregate.
func TestCancelledBeforeStartRunsNothing(t *testing.T) {
	e, _, _ := buildEngine(t, "adpcm", campaign.Config{})
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := e.RunPoint(cctx, campaign.Point{Errors: 1, HiBit: 31, MaxTrials: 64}, nil)
	if !r.Cancelled {
		t.Fatalf("pre-cancelled point not flagged: %+v", r)
	}
	if r.Trials != 0 {
		t.Fatalf("pre-cancelled point ran %d trials", r.Trials)
	}
}

// TestRerunAfterCancelBitIdentical: cancellation must leave no trace in
// the engine. After a cancelled point, re-running the same point under a
// live context is bit-identical to a never-cancelled run at every worker
// count.
func TestRerunAfterCancelBitIdentical(t *testing.T) {
	pt := campaign.Point{Errors: 3, HiBit: 31, MaxTrials: 48, Seed: 13}

	// Reference: a fresh engine that never saw a cancellation.
	ref, _, _ := buildEngine(t, "adpcm", campaign.Config{ShardSize: 8})
	want := ref.RunPoint(ctx, pt, nil)

	e, _, _ := buildEngine(t, "adpcm", campaign.Config{ShardSize: 8})
	cctx, cancel := context.WithCancel(context.Background())
	e.RunPoint(cctx, pt, func(i int, tr campaign.Trial) {
		if i == 2 {
			cancel()
		}
	})
	for _, workers := range []int{1, 3, 8} {
		p := pt
		p.Workers = workers
		got := e.RunPoint(ctx, p, nil)
		if !pointsEqual(want, got) {
			t.Fatalf("post-cancel re-run differs at %d workers:\n%+v\n%+v", workers, want, got)
		}
	}
}

// buildHardenedEngine compiles a benchmark, hardens it with both
// transforms, and prepares a detection campaign against the protected
// primaries.
func buildHardenedEngine(t *testing.T, name string) *campaign.Engine {
	t.Helper()
	a, ok := all.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	prog, err := minic.Build(a.Source())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harden.Harden(rep, harden.Options{DupCompare: true, Signatures: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := campaign.New(res.Prog, res.PrimaryProtected, sim.Config{Input: a.Input()}, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDetectionLatencyPercentiles: a detection campaign on a hardened
// program must report latency percentiles consistent with its per-trial
// latencies, deterministically across worker counts.
func TestDetectionLatencyPercentiles(t *testing.T) {
	e := buildHardenedEngine(t, "adpcm")
	pt := campaign.Point{Errors: 1, HiBit: 31, MaxTrials: 64}
	var lats []uint64
	r := e.RunPoint(ctx, pt, func(i int, tr campaign.Trial) {
		if tr.Outcome == sim.Detected {
			if !tr.HasLatency {
				t.Fatalf("detected trial %d has no latency window", i)
			}
			lats = append(lats, tr.DetectLatency)
		} else if tr.HasLatency {
			t.Fatalf("non-detected trial %d claims a latency", i)
		}
	})
	if r.Detected == 0 {
		t.Fatalf("no detections over %d trials; latency untestable: %+v", r.Trials, r)
	}
	if len(lats) != r.Detected {
		t.Fatalf("observer saw %d latencies for %d detections", len(lats), r.Detected)
	}
	if r.DetectLatencyP50 == 0 || r.DetectLatencyP95 < r.DetectLatencyP50 {
		t.Fatalf("implausible latency percentiles: p50=%d p95=%d", r.DetectLatencyP50, r.DetectLatencyP95)
	}
	var lo, hi uint64 = lats[0], lats[0]
	for _, l := range lats {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if r.DetectLatencyP50 < lo || r.DetectLatencyP95 > hi {
		t.Fatalf("percentiles [%d, %d] outside observed range [%d, %d]",
			r.DetectLatencyP50, r.DetectLatencyP95, lo, hi)
	}
	pt.Workers = 5
	r2 := e.RunPoint(ctx, pt, nil)
	if !pointsEqual(r, r2) {
		t.Fatalf("latency percentiles differ across worker counts:\n%+v\n%+v", r, r2)
	}
}
