// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating each exhibit at reduced trial counts), plus ablation and
// substrate microbenchmarks. Regenerate the full-resolution exhibits with
// cmd/etexp; these benches exist so `go test -bench=.` exercises every
// experiment end to end and reports the cost of each pipeline stage.
package etap

import (
	"context"
	"fmt"
	"testing"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/exp"
	"etap/internal/fault"
	"etap/internal/harden"
	"etap/internal/minic"
	"etap/internal/sim"
)

// benchOpt keeps benchmark iterations affordable; the shapes are the same
// as the full runs, just noisier.
func benchOpt() exp.Options {
	o := exp.DefaultOptions()
	o.Trials = 4
	return o
}

func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := exp.Table1(); len(r.Rows) != 7 {
			b.Fatalf("table 1 rows: %d", len(r.Rows))
		}
	}
}

func BenchmarkTable2Failures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table2(context.Background(), benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Tagging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table3(context.Background(), benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFigure(b *testing.B, fn func(context.Context, exp.Options) (*exp.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := fn(context.Background(), benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Susan(b *testing.B)    { benchFigure(b, exp.Figure1) }
func BenchmarkFigure2MPEG(b *testing.B)     { benchFigure(b, exp.Figure2) }
func BenchmarkFigure3MCF(b *testing.B)      { benchFigure(b, exp.Figure3) }
func BenchmarkFigure4Blowfish(b *testing.B) { benchFigure(b, exp.Figure4) }
func BenchmarkFigure5GSM(b *testing.B)      { benchFigure(b, exp.Figure5) }
func BenchmarkFigure6ART(b *testing.B)      { benchFigure(b, exp.Figure6) }

func BenchmarkPolicyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.PolicyAblation(context.Background(), benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPotentialModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Potential(context.Background(), benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.BitSensitivity(context.Background(), benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate microbenchmarks.

// BenchmarkSimulator measures raw functional-simulation speed
// (instructions per second) on the Blowfish workload.
func BenchmarkSimulator(b *testing.B) {
	a, _ := all.ByName("blowfish")
	prog, err := minic.Build(a.Source())
	if err != nil {
		b.Fatal(err)
	}
	input := a.Input()
	b.ResetTimer()
	var instret uint64
	for i := 0; i < b.N; i++ {
		res := sim.Run(prog, sim.Config{Input: input})
		if res.Outcome != sim.OK {
			b.Fatalf("outcome %s", res.Outcome)
		}
		instret += res.Instret
	}
	b.ReportMetric(float64(instret)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulatorWithPlan measures the fault-accounting overhead of the
// inner loop (eligibility counting enabled, no flips scheduled).
func BenchmarkSimulatorWithPlan(b *testing.B) {
	a, _ := all.ByName("blowfish")
	prog, err := minic.Build(a.Source())
	if err != nil {
		b.Fatal(err)
	}
	input := a.Input()
	plan := &sim.FaultPlan{Eligible: core.EligibleAll(prog)}
	b.ResetTimer()
	var instret uint64
	for i := 0; i < b.N; i++ {
		res := sim.Run(prog, sim.Config{Input: input, Plan: plan})
		if res.Outcome != sim.OK {
			b.Fatalf("outcome %s", res.Outcome)
		}
		instret += res.Instret
	}
	b.ReportMetric(float64(instret)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkCompile measures the MiniC pipeline (parse, check, codegen,
// assemble) on the largest application source.
func BenchmarkCompile(b *testing.B) {
	a, _ := all.ByName("mpeg")
	src := a.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minic.Build(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the control-data analysis per policy on the
// largest text segment.
func BenchmarkAnalyze(b *testing.B) {
	a, _ := all.ByName("mpeg")
	prog, err := minic.Build(a.Source())
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []core.Policy{core.PolicyControl, core.PolicyControlAddr, core.PolicyConservative} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(prog, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInjectionTrial measures one full protected fault-injection trial
// per application (build amortized outside the loop).
func BenchmarkInjectionTrial(b *testing.B) {
	for _, a := range all.Apps() {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			prog, err := minic.Build(a.Source())
			if err != nil {
				b.Fatal(err)
			}
			rep, err := core.Analyze(prog, core.PolicyControlAddr)
			if err != nil {
				b.Fatal(err)
			}
			camp, err := campaign.New(prog, rep.Tagged, sim.Config{Input: a.Input()}, campaign.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				camp.Run(10, int64(i))
			}
		})
	}
}

// BenchmarkCampaignLateInjection is the engine's headline comparison: a
// trial whose single injection lands in the last sixteenth of the
// eligible stream, run from instruction zero (the pre-engine baseline)
// versus resumed from the nearest checkpoint. The checkpointed variant
// must win by a wide margin (the acceptance target is ≥3×).
func BenchmarkCampaignLateInjection(b *testing.B) {
	a, _ := all.ByName("blowfish")
	prog, err := minic.Build(a.Source())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := campaign.New(prog, rep.Tagged, sim.Config{Input: a.Input()}, campaign.Config{})
	if err != nil {
		b.Fatal(err)
	}
	stream := eng.Clean.EligibleExec
	window := stream / 16
	latePlan := func(i int) *sim.FaultPlan {
		at := stream - window + uint64(i)%window + 1
		if at > stream {
			at = stream
		}
		return &sim.FaultPlan{
			Eligible:   eng.Eligible,
			Injections: []sim.Injection{{At: at, Bit: uint8(i % 32)}},
		}
	}
	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := sim.Config{Input: a.Input(), MaxInstr: eng.Budget, Plan: latePlan(i)}
			sim.Run(prog, cfg)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	})
	b.Run("checkpointed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.RunPlan(latePlan(i))
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	})
}

// BenchmarkCampaignPoint measures end-to-end sharded point throughput on
// the engine (plan generation, checkpoint resume, scoring, aggregation).
func BenchmarkCampaignPoint(b *testing.B) {
	a, _ := all.ByName("adpcm")
	prog, err := minic.Build(a.Source())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := campaign.New(prog, rep.Tagged, sim.Config{Input: a.Input()}, campaign.Config{})
	if err != nil {
		b.Fatal(err)
	}
	eng.Score = apps.Scorer(a)
	b.ResetTimer()
	trials := 0
	for i := 0; i < b.N; i++ {
		r := eng.RunPoint(context.Background(), campaign.Point{Errors: 5, HiBit: 31, MaxTrials: 64, Seed: int64(i + 1)}, nil)
		trials += r.Trials
	}
	b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkCampaignPruning measures the trials/s effect of static
// injection pruning at a low error count, where single-site plans give
// the dead-destination classifier the most trials to skip. Blowfish has
// the highest dynamic benign fraction of the suite (~3% of eligible
// executions), so it is where the win is visible. The two sub-benchmarks
// run the identical point with pruning on and off; the streams are
// bit-identical (TestPruningDifferential), so the delta is pure avoided
// simulation.
func BenchmarkCampaignPruning(b *testing.B) {
	a, _ := all.ByName("blowfish")
	prog, err := minic.Build(a.Source())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		errors  int
		disable bool
	}{
		// errors=0: the sweep's fidelity baseline — every plan is vacuously
		// benign, so the pruned engine synthesizes the whole point.
		{"errors=0/pruned", 0, false},
		{"errors=0/full", 0, true},
		{"errors=1/pruned", 1, false},
		{"errors=1/full", 1, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng, err := campaign.New(prog, rep.Tagged, sim.Config{Input: a.Input()},
				campaign.Config{DisablePrune: bc.disable})
			if err != nil {
				b.Fatal(err)
			}
			eng.Score = apps.Scorer(a)
			b.ResetTimer()
			trials := 0
			for i := 0; i < b.N; i++ {
				r := eng.RunPoint(context.Background(), campaign.Point{Errors: bc.errors, HiBit: 31, MaxTrials: 64, Seed: int64(i + 1)}, nil)
				trials += r.Trials
			}
			b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
			if !bc.disable {
				b.ReportMetric(eng.StaticPruneFraction(), "prune-fraction")
			}
		})
	}
}

// BenchmarkPlanGeneration measures error-schedule construction.
func BenchmarkPlanGeneration(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("errors=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fault.NewPlan(nil, 5_000_000, n, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHardenOverhead measures the harden rewriter and the simulated
// instruction overhead of the hardened program versus baseline: the
// realized cost of the protection the paper's idealized model assumes is
// free. The reported metrics are the static and dynamic hardened/original
// instruction ratios.
func BenchmarkHardenOverhead(b *testing.B) {
	a, _ := all.ByName("adpcm")
	prog, err := minic.Build(a.Source())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		b.Fatal(err)
	}
	res, err := harden.Harden(rep, harden.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	input := a.Input()
	base := sim.Run(prog, sim.Config{Input: input})
	if base.Outcome != sim.OK {
		b.Fatalf("baseline outcome %s", base.Outcome)
	}
	b.ResetTimer()
	var hardInstret uint64
	for i := 0; i < b.N; i++ {
		r := sim.Run(res.Prog, sim.Config{Input: input})
		if r.Outcome != sim.OK {
			b.Fatalf("hardened outcome %s", r.Outcome)
		}
		hardInstret = r.Instret
	}
	b.ReportMetric(res.StaticOverhead(), "static-x")
	b.ReportMetric(float64(hardInstret)/float64(base.Instret), "dynamic-x")
}

// BenchmarkEngineRestore measures a checkpoint-resumed trial on the pooled
// Runner: one late injection, machine state restored copy-on-write, cost
// reported per re-executed instruction.
func BenchmarkEngineRestore(b *testing.B) {
	a, _ := all.ByName("blowfish")
	prog, err := minic.Build(a.Source())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		b.Fatal(err)
	}
	plan := &sim.FaultPlan{Eligible: rep.Tagged}
	rec, err := sim.Record(prog, sim.Config{Input: a.Input(), Plan: plan}, sim.RecordOptions{})
	if err != nil {
		b.Fatal(err)
	}
	stream := rec.Result.EligibleExec
	rn := rec.NewRunner()
	defer rn.Close()
	b.ResetTimer()
	var replayed uint64
	for i := 0; i < b.N; i++ {
		at := stream - stream/16 + uint64(i)%(stream/16)
		trial := &sim.FaultPlan{
			Eligible:   rep.Tagged,
			Injections: []sim.Injection{{At: at, Bit: uint8(i % 32)}},
		}
		idx := rec.SnapshotBefore(at)
		res := rn.RunFrom(idx, trial, rec.Result.Instret*2)
		delta := res.Instret
		if idx >= 0 {
			delta -= rec.Snapshots()[idx].Instret
		}
		replayed += delta
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(replayed), "ns/instruction")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkMaskingDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Masking(context.Background(), benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}
