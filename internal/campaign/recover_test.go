package campaign_test

import (
	"bytes"
	"testing"

	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/fault"
	"etap/internal/harden"
	"etap/internal/minic"
	"etap/internal/sim"
)

// buildHardened compiles a benchmark, applies the real protection
// transforms and prepares a detection-campaign engine over the primary
// protected copies — the same shape etap.HardenedSystem.NewDetectionCampaign
// constructs.
func buildHardened(t *testing.T, name string, cfg campaign.Config) *campaign.Engine {
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
	e, err := campaign.New(res.Prog, res.PrimaryProtected, sim.Config{Input: a.Input()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.DetectClass = func(pc int) string { return res.CheckKindAt(pc).String() }
	return e
}

// collectPoint runs a point and returns its aggregate plus the ordered
// trial stream.
func collectPoint(t *testing.T, e *campaign.Engine, pt campaign.Point) (campaign.PointResult, []campaign.Trial) {
	t.Helper()
	var trials []campaign.Trial
	r := e.RunPoint(ctx, pt, func(i int, tr campaign.Trial) { trials = append(trials, tr) })
	if r.Tolerated+r.Detected+r.Untolerated != r.Trials {
		t.Fatalf("availability accounting does not partition the trials: tolerated %d + detected %d + untolerated %d != %d",
			r.Tolerated, r.Detected, r.Untolerated, r.Trials)
	}
	return r, trials
}

// TestRecoveryDifferential is the recovery bit-identity contract over
// every benchmark, original and hardened, errors 0–4:
//
//   - with recovery disabled (MaxRecoveries 0) a campaign is bit-identical
//     to the pre-recovery engine — pinned by comparing the disabled trial
//     stream against an enabled run on subjects that never trap, and
//     RunPlanRecover(plan, 0) against RunPlan on subjects that do;
//   - with recovery enabled, a trial that did not end Detected is
//     untouched, and every trial classified Recovered produced output
//     byte-identical to the golden run.
func TestRecoveryDifferential(t *testing.T) {
	names := all.Names()
	if testing.Short() {
		names = names[:1]
	} else if raceEnabled {
		names = names[:2]
	}
	errorCounts := []int{0, 1, 2, 3, 4}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()

			// Original (unhardened) program: no trapdet exists, so the
			// recovery knob must change nothing, bit for bit — which also
			// pins that MaxRecoveries 0 is exactly today's engine.
			orig, _, _ := buildEngine(t, name, campaign.Config{ShardSize: 8})
			for _, errors := range errorCounts {
				off, offTrials := collectPoint(t, orig, campaign.Point{Errors: errors, HiBit: 31, MaxTrials: 16, Seed: 31})
				on, onTrials := collectPoint(t, orig, campaign.Point{Errors: errors, HiBit: 31, MaxTrials: 16, Seed: 31, MaxRecoveries: 3})
				if off.Recovered != 0 || off.RecoveryAttempts != 0 {
					t.Fatalf("errors=%d: disabled recovery reports recovery work: %+v", errors, off)
				}
				if !pointsEqual(off, on) {
					t.Fatalf("errors=%d: recovery knob perturbed an unhardened campaign\noff: %+v\non:  %+v", errors, off, on)
				}
				for i := range offTrials {
					if !trialsEqual(offTrials[i], onTrials[i]) {
						t.Fatalf("errors=%d trial %d: recovery knob perturbed an unhardened trial\noff: %+v\non:  %+v",
							errors, i, offTrials[i], onTrials[i])
					}
				}
			}

			// Hardened program: per-plan differential at the sim.Result
			// level, where trial output is visible.
			hard := buildHardened(t, name, campaign.Config{ShardSize: 8})
			golden := hard.Clean.Output
			detected, recoveredTotal := 0, 0
			for _, errors := range errorCounts {
				for seed := int64(1); seed <= 8; seed++ {
					plan, err := fault.NewPlanBits(hard.Eligible, hard.Clean.EligibleExec, errors, seed*97+int64(errors), 0, 31)
					if err != nil {
						t.Fatal(err)
					}
					plain := hard.RunPlan(plan)
					if off := hard.RunPlanRecover(plan, 0); !resultsEqual(plain, off) || off.RecoveryAttempts != 0 {
						t.Fatalf("errors=%d seed=%d: MaxRecoveries 0 diverged from RunPlan", errors, seed)
					}
					rec := hard.RunPlanRecover(plan, 4)
					if plain.Outcome != sim.Detected {
						if !resultsEqual(plain, rec) || rec.RecoveryAttempts != 0 || rec.RecoverInstret != 0 {
							t.Fatalf("errors=%d seed=%d: recovery touched a %s trial", errors, seed, plain.Outcome)
						}
						continue
					}
					detected++
					if rec.RecoveryAttempts == 0 {
						t.Fatalf("errors=%d seed=%d: detected trial consumed no recovery attempt", errors, seed)
					}
					switch rec.Outcome {
					case sim.Recovered:
						recoveredTotal++
						if !bytes.Equal(rec.Output, golden) {
							t.Fatalf("errors=%d seed=%d: Recovered trial output is not byte-identical to golden", errors, seed)
						}
					case sim.OK:
						if bytes.Equal(rec.Output, golden) {
							t.Fatalf("errors=%d seed=%d: golden-identical completion classified OK, want Recovered", errors, seed)
						}
					case sim.Detected, sim.Crash, sim.Timeout:
						// Exhausted attempts/budget or a replay that failed
						// harder; legal end states.
					default:
						t.Fatalf("errors=%d seed=%d: unexpected recovery outcome %s", errors, seed, rec.Outcome)
					}
				}
			}
			if detected == 0 {
				t.Fatal("hardened differential never observed a detection; fixture is not exercising recovery")
			}
			if recoveredTotal == 0 {
				t.Fatal("hardened differential never recovered a trial")
			}
		})
	}
}

// TestAvailabilityAccounting pins the tolerated/detected/untolerated
// partition and the recovery aggregates of a hardened campaign point
// against its own trial stream.
func TestAvailabilityAccounting(t *testing.T) {
	e := buildHardened(t, "adpcm", campaign.Config{ShardSize: 8})
	pt := campaign.Point{Errors: 1, HiBit: 31, MaxTrials: 64, Seed: 5, MaxRecoveries: 3}
	r, trials := collectPoint(t, e, pt)

	recovered, degraded, attempts := 0, 0, 0
	for _, tr := range trials {
		attempts += tr.RecoveryAttempts
		switch {
		case tr.Outcome == sim.Recovered:
			recovered++
			if tr.RecoverInstret == 0 {
				t.Fatal("recovered trial reports zero replayed instructions")
			}
		case tr.Outcome == sim.OK && tr.RecoveryAttempts > 0:
			degraded++
			if tr.Masked {
				t.Fatal("degraded completion claims a golden-identical (masked) output")
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no trial recovered; single-bit faults on hardened adpcm should mostly be caught and replayed")
	}
	if r.Recovered != recovered || r.Degraded != degraded || r.RecoveryAttempts != attempts {
		t.Fatalf("aggregate recovery counters diverge from the trial stream: %+v vs recovered=%d degraded=%d attempts=%d",
			r, recovered, degraded, attempts)
	}
	if r.Tolerated != r.Accepted+r.Recovered {
		t.Fatalf("tolerated %d != accepted %d + recovered %d", r.Tolerated, r.Accepted, r.Recovered)
	}
	if r.AvailabilityPct < r.AvailabilityLowPct || r.AvailabilityPct > r.AvailabilityHighPct {
		t.Fatalf("availability %v outside its interval [%v, %v]", r.AvailabilityPct, r.AvailabilityLowPct, r.AvailabilityHighPct)
	}
	if r.RecoverLatencyP50 == 0 || r.RecoverLatencyP95 < r.RecoverLatencyP50 {
		t.Fatalf("implausible recovery latency percentiles: p50=%d p95=%d", r.RecoverLatencyP50, r.RecoverLatencyP95)
	}

	// Recovery converts detections, never invents or destroys other
	// outcomes: trial-by-trial, everything that was not Detected without
	// recovery is untouched with it.
	off, offTrials := collectPoint(t, e, campaign.Point{Errors: 1, HiBit: 31, MaxTrials: 64, Seed: 5})
	if off.Recovered != 0 || off.Degraded != 0 || off.RecoveryAttempts != 0 {
		t.Fatalf("disabled recovery reports recovery work: %+v", off)
	}
	if off.Detected == 0 {
		t.Fatal("detection campaign detected nothing")
	}
	for i := range offTrials {
		if offTrials[i].Outcome != sim.Detected {
			if !trialsEqual(offTrials[i], trials[i]) {
				t.Fatalf("trial %d (%s) perturbed by recovery\noff: %+v\non:  %+v",
					i, offTrials[i].Outcome, offTrials[i], trials[i])
			}
		} else if trials[i].Outcome == sim.Detected && trials[i].RecoveryAttempts == 0 {
			t.Fatalf("trial %d stayed Detected without consuming a recovery attempt", i)
		}
	}
	if got := off.Detected - r.Detected; got != r.Recovered+r.Degraded+(r.Crashes-off.Crashes)+(r.Timeouts-off.Timeouts) {
		t.Fatalf("detection delta %d unaccounted for: %+v vs %+v", got, off, r)
	}
}
