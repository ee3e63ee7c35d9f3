package campaign_test

import (
	"bytes"
	"math"
	"testing"

	"etap/internal/apps/all"
	"etap/internal/asm"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/exp"
	"etap/internal/harden"
	"etap/internal/isa"
	"etap/internal/minic"
	"etap/internal/sim"
)

// trialsEqual compares two trials with NaN-valued scores normalized.
func trialsEqual(a, b campaign.Trial) bool {
	if math.IsNaN(a.Value) != math.IsNaN(b.Value) {
		return false
	}
	if math.IsNaN(a.Value) {
		a.Value, b.Value = 0, 0
	}
	return a == b
}

// diffPoint runs the same point on both engines and fails the test on
// any divergence in the aggregate result or the per-trial stream.
func diffPoint(t *testing.T, full, pruned *campaign.Engine, pt campaign.Point) (campaign.PointResult, campaign.PointResult) {
	t.Helper()
	var fullTrials, prunedTrials []campaign.Trial
	fr := full.RunPoint(ctx, pt, func(i int, tr campaign.Trial) { fullTrials = append(fullTrials, tr) })
	pr := pruned.RunPoint(ctx, pt, func(i int, tr campaign.Trial) { prunedTrials = append(prunedTrials, tr) })
	if !pointsEqual(fr, pr) {
		t.Fatalf("errors=%d: point results diverge\nfull:   %+v\npruned: %+v", pt.Errors, fr, pr)
	}
	if len(fullTrials) != len(prunedTrials) {
		t.Fatalf("errors=%d: trial streams %d vs %d", pt.Errors, len(fullTrials), len(prunedTrials))
	}
	for i := range fullTrials {
		if !trialsEqual(fullTrials[i], prunedTrials[i]) {
			t.Fatalf("errors=%d trial %d diverges\nfull:   %+v\npruned: %+v",
				pt.Errors, i, fullTrials[i], prunedTrials[i])
		}
	}
	return fr, pr
}

// TestPruningDifferential is the bit-identity contract of static
// injection pruning: for every benchmark, a campaign with pruning
// enabled produces exactly the same per-trial stream, aggregates,
// confidence intervals and serialized report bytes as one that simulates
// every trial — while actually skipping the statically benign ones.
func TestPruningDifferential(t *testing.T) {
	names := all.Names()
	if testing.Short() {
		names = names[:1]
	} else if raceEnabled {
		names = names[:2]
	}
	totalPruned := uint64(0)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{ShardSize: 8}
			fullCfg := cfg
			fullCfg.DisablePrune = true
			full, _, _ := buildEngine(t, name, fullCfg)
			pruned, _, _ := buildEngine(t, name, cfg)
			if full.PruningEnabled() {
				t.Fatal("DisablePrune engine reports pruning enabled")
			}
			if !pruned.PruningEnabled() {
				t.Fatal("compiled benchmark did not enable pruning")
			}

			var fullPts, prunedPts []campaign.PointResult
			for _, errors := range []int{0, 1, 2, 4} {
				pt := campaign.Point{Errors: errors, HiBit: 31, MaxTrials: 32, Seed: 11}
				fr, pr := diffPoint(t, full, pruned, pt)
				fullPts = append(fullPts, fr)
				prunedPts = append(prunedPts, pr)
			}
			// A recovery-enabled point rides through the same contract:
			// synthesized all-benign trials are never Detected, so pruning
			// and recovery must compose without perturbing either stream.
			fr, pr := diffPoint(t, full, pruned, campaign.Point{Errors: 2, HiBit: 31, MaxTrials: 32, Seed: 11, MaxRecoveries: 2})
			fullPts = append(fullPts, fr)
			prunedPts = append(prunedPts, pr)

			// The serialized reports must be byte-identical too.
			tmpl := campaign.Point{HiBit: 31, MaxTrials: 32, Seed: 11}
			fullRep := exp.Characterize(name, "full", "control+addr", tmpl, fullPts)
			prunedRep := exp.Characterize(name, "full", "control+addr", tmpl, prunedPts)
			var fj, pj, fc, pc bytes.Buffer
			if err := exp.WriteJSON(&fj, []*exp.Report{fullRep}); err != nil {
				t.Fatal(err)
			}
			if err := exp.WriteJSON(&pj, []*exp.Report{prunedRep}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fj.Bytes(), pj.Bytes()) {
				t.Fatalf("JSON reports differ:\n%s\nvs\n%s", fj.String(), pj.String())
			}
			if err := exp.WriteCSV(&fc, []*exp.Report{fullRep}); err != nil {
				t.Fatal(err)
			}
			if err := exp.WriteCSV(&pc, []*exp.Report{prunedRep}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fc.Bytes(), pc.Bytes()) {
				t.Fatalf("CSV reports differ:\n%s\nvs\n%s", fc.String(), pc.String())
			}

			if full.PrunedTrials() != 0 {
				t.Fatalf("DisablePrune engine pruned %d trials", full.PrunedTrials())
			}
			// errors=0 plans are vacuously benign, so every engine with
			// pruning prunes at least those.
			if pruned.PrunedTrials() == 0 {
				t.Fatal("pruning engine simulated every trial")
			}
			// Every app's protected control+addr engine has some statically
			// benign injection ordinals (susan ~1e-5 up to blowfish ~0.03).
			if f := pruned.StaticPruneFraction(); f <= 0 || f >= 1 {
				t.Fatalf("static prune fraction %v out of (0,1)", f)
			}
			totalPruned += pruned.PrunedTrials()
		})
	}
	_ = totalPruned
}

// TestPruningDifferentialHardened repeats the bit-identity check on a
// harden-transformed program, whose eligible sites are the primary
// protected copies.
func TestPruningDifferentialHardened(t *testing.T) {
	a, ok := all.ByName("adpcm")
	if !ok {
		t.Fatal("adpcm missing")
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
	build := func(cfg campaign.Config) *campaign.Engine {
		e, err := campaign.New(res.Prog, res.PrimaryProtected, sim.Config{Input: a.Input()}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	full := build(campaign.Config{ShardSize: 8, DisablePrune: true})
	pruned := build(campaign.Config{ShardSize: 8})
	if !pruned.PruningEnabled() {
		t.Fatal("hardened program did not enable pruning")
	}
	for _, errors := range []int{0, 1, 3} {
		diffPoint(t, full, pruned, campaign.Point{Errors: errors, HiBit: 31, MaxTrials: 24, Seed: 23})
		// With recovery on, some Detected trials become Recovered; pruned
		// and fully simulated engines must agree on those too.
		fr, _ := diffPoint(t, full, pruned, campaign.Point{Errors: errors, HiBit: 31, MaxTrials: 24, Seed: 23, MaxRecoveries: 2})
		if errors > 0 && fr.Recovered == 0 && fr.Detected == 0 && fr.RecoveryAttempts == 0 {
			t.Fatalf("errors=%d: hardened recovery point never trapped nor recovered: %+v", errors, fr)
		}
	}
}

// zeroSinkProgram has exactly one eligible site, an add whose
// destination is the hardwired $zero sink. Every trial against it is
// statically benign: the simulator discards the flip, so the campaign
// can synthesize the outcome without running the machine.
const zeroSinkProgram = `
.text
.func __start
	li $t0, 21
	add $zero, $t0, $t0
	add $a0, $t0, $t0
	li $v0, 1
	syscall
.endfunc
`

// TestZeroDestSitesPrunedWithoutSimulation is the regression for
// sink-redirected destinations: a campaign whose only eligible site
// writes $zero prunes every trial and still matches a fully simulated
// campaign bit for bit.
func TestZeroDestSitesPrunedWithoutSimulation(t *testing.T) {
	prog, err := asm.Assemble(zeroSinkProgram)
	if err != nil {
		t.Fatal(err)
	}
	eligible := make([]bool, len(prog.Text))
	marked := 0
	for i, in := range prog.Text {
		if d, okd := in.Dest(); okd && d == isa.RegZero {
			eligible[i] = true
			marked++
		}
	}
	if marked != 1 {
		t.Fatalf("marked %d $zero-destination sites, want 1", marked)
	}
	build := func(cfg campaign.Config) *campaign.Engine {
		e, err := campaign.New(prog, eligible, sim.Config{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	full := build(campaign.Config{ShardSize: 4, DisablePrune: true})
	pruned := build(campaign.Config{ShardSize: 4})
	if !pruned.PruningEnabled() {
		t.Fatal("pruning disabled on handcrafted program")
	}
	pt := campaign.Point{Errors: 1, HiBit: 31, MaxTrials: 8, Seed: 3}
	diffPoint(t, full, pruned, pt)
	if got := pruned.PrunedTrials(); got != 8 {
		t.Fatalf("pruned %d of 8 all-benign trials", got)
	}
	if full.PrunedTrials() != 0 {
		t.Fatal("full engine pruned trials")
	}
}
