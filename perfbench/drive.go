package main

import (
	"fmt"
	"time"

	"etap/internal/analysis"
	"etap/internal/fault"
	"etap/internal/sim"
)

// drive times the simulator-level layers directly: the static
// classification and golden pass campaign.New hides, a clean engine run,
// and trial restore/replay, plan generation and scoring over plans drawn
// the way the campaign draws them. It runs on one goroutine after the
// timed passes, so its timings are uncontended.
type drive struct {
	seed int64

	classify, record time.Duration
	recordInstr      uint64
	run              time.Duration
	runInstr         uint64
	checkpoints      int

	plans, scores  int
	plan, score    time.Duration
	trialUS        []float64
	replay         time.Duration
	replayedInstr  uint64
	recover        time.Duration
	recoverInstr   uint64
	recoveredPlans int
}

// drivePlans is how many plans per subject the drive replays, split
// across the error counts it drives.
const drivePlans = 8

func newDrive(seed int64) *drive { return &drive{seed: seed} }

// trialBudget mirrors campaign.Engine's instruction limit for faulty
// trials.
func trialBudget(clean sim.Result) uint64 { return clean.Instret*16 + 10_000_000 }

// subjects drives every subject: classification, golden pass, clean run,
// and drivePlans trials at the lowest and highest swept error counts
// (with recovery when the subject recovers).
func (d *drive) subjects(subs []*subject, errors []int) {
	counts := []int{errors[0]}
	if last := errors[len(errors)-1]; last != errors[0] {
		counts = append(counts, last)
	}
	for si, s := range subs {
		start := time.Now()
		analysis.Classify(s.prog) //nolint:errcheck // timing only; campaign.New already classified it
		d.classify += time.Since(start)
		rec := d.golden(s)
		if rec == nil {
			continue
		}
		d.trials(s, si, rec, counts, drivePlans/len(counts))
	}
}

// golden times sim.Record (the golden pass) and a clean sim.Run on the
// engine over the same program, mask and input.
func (d *drive) golden(s *subject) *sim.Recording {
	cfg := sim.Config{Input: s.input, Plan: &sim.FaultPlan{Eligible: s.mask}}
	start := time.Now()
	rec, err := sim.Record(s.prog, cfg, sim.RecordOptions{})
	d.record += time.Since(start)
	if err != nil {
		return nil
	}
	d.recordInstr += rec.Result.Instret
	d.checkpoints += len(rec.Snapshots())
	start = time.Now()
	res := sim.Run(s.prog, cfg)
	d.run += time.Since(start)
	d.runInstr += res.Instret
	return rec
}

func (d *drive) trials(s *subject, si int, rec *sim.Recording, counts []int, plans int) {
	golden := rec.Result
	budget := trialBudget(golden)
	rn := rec.NewRunner()
	defer rn.Close()
	for _, n := range counts {
		for k := 0; k < plans; k++ {
			start := time.Now()
			plan, err := fault.NewPlanBits(s.mask, golden.EligibleExec, n, mix(d.seed, 7, si, n, k), 0, 31)
			d.plan += time.Since(start)
			d.plans++
			if err != nil || len(plan.Injections) == 0 {
				continue
			}
			idx := rec.SnapshotBefore(plan.Injections[0].At)
			var from uint64
			if idx >= 0 {
				from = rec.Snapshots()[idx].Instret
			}
			start = time.Now()
			res := rn.RunFrom(idx, plan, budget)
			el := time.Since(start)
			d.trialUS = append(d.trialUS, float64(el.Nanoseconds())/1e3)
			d.replay += el
			d.replayedInstr += res.Instret - from
			if res.Outcome == sim.OK {
				start = time.Now()
				s.score(golden.Output, res.Output)
				d.score += time.Since(start)
				d.scores++
			}
			if s.recovery > 0 && res.Outcome == sim.Detected {
				// The recovery share is the extra time RunRecover spends
				// beyond the plain run that ended at the detection.
				start = time.Now()
				rr := rn.RunRecover(idx, plan, budget, sim.RecoveryPolicy{MaxAttempts: s.recovery})
				extra := time.Since(start) - el
				if rr.RecoverInstret > 0 {
					d.recover += extra
					d.recoverInstr += rr.RecoverInstret
					d.recoveredPlans++
				}
			}
		}
	}
}

func perInstr(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// report emits the drive's per-layer metrics.
func (d *drive) report(rep *report) {
	rep.metric(false, "analysis.classify_ms", ms(d.classify), "ms", "summed over subjects")
	rep.metric(false, "sim.record_ms", ms(d.record), "ms", "golden passes, summed over subjects")
	rep.metric(false, "sim.record_ns_per_instr", perInstr(d.record, d.recordInstr), "ns/instr", "golden pass per clean instruction")
	rep.metric(false, "sim.run_ns_per_instr", perInstr(d.run, d.runInstr), "ns/instr", "clean sim.Run on the engine")
	rep.metric(false, "sim.checkpoints", float64(d.checkpoints), "count", "checkpoints the golden passes kept")
	p := tailPercentile(len(d.trialUS))
	rep.metric(false, "sim.trial_us_p50", median(d.trialUS), "us", fmt.Sprintf("p50 of n=%d restored trials", len(d.trialUS)))
	rep.metric(false, "sim.trial_us_tail", percentile(d.trialUS, p), "us", fmt.Sprintf("p%g of n=%d", p, len(d.trialUS)))
	rep.metric(false, "sim.replay_ns_per_instr", perInstr(d.replay, d.replayedInstr), "ns/instr", "restore + replay per re-executed instruction")
	perTrial := 0.0
	if len(d.trialUS) > 0 {
		perTrial = float64(d.replayedInstr) / float64(len(d.trialUS))
	}
	rep.metric(false, "sim.replayed_instr_per_trial", perTrial, "instr", "instructions re-executed from the checkpoint")
	rep.metric(false, "sim.recover_replay_ns_per_instr", perInstr(d.recover, d.recoverInstr), "ns/instr",
		fmt.Sprintf("over %d detected plans", d.recoveredPlans))
	rep.metric(false, "fault.plan_us", perOp(d.plan, d.plans), "us", fmt.Sprintf("fault.NewPlanBits, n=%d", d.plans))
	rep.metric(false, "apps.score_us", perOp(d.score, d.scores), "us", fmt.Sprintf("apps.Scorer, n=%d", d.scores))
}
