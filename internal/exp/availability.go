package exp

import (
	"context"
	"fmt"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/harden"
)

// availabilityRecoveries is the restore-replay budget per detected trial
// in the experiment's recovery configuration.
const availabilityRecoveries = 3

// Availability closes the detect→recover loop over every hardened
// benchmark: single-bit trials against the protected copies, once with
// detection terminal and once with checkpoint-restore recovery, binned
// in the tolerated/detected/untolerated style of freestore's
// fault-tolerance accounting. Tolerated = threshold-passing completions
// plus Recovered trials; Detected = fail-fast stops recovery could not
// (or was not allowed to) absorb; Untolerated = crashes, hangs and
// unacceptable completions. The availability column is the tolerated
// fraction with its Wilson 95% interval.
func Availability(ctx context.Context, opt Options) (*Report, error) {
	r := &Report{
		ID:   "availability",
		Kind: KindTable,
		Title: fmt.Sprintf("Availability under single-bit faults on hardened benchmarks (%d trials):\ntolerated = acceptable completion or checkpoint-restore recovery;\ndetected = redundancy check stopped the run unrecovered; untolerated =\ncrash, hang or unacceptable output. Recovery replays up to %d rollbacks.",
			opt.Point.MaxTrials, availabilityRecoveries),
		Columns: []Column{
			{Name: "Algorithm"},
			{Name: "Recovery"},
			{Name: "Tolerated", Unit: "%"},
			{Name: "Detected", Unit: "%"},
			{Name: "Untolerated", Unit: "%"},
			{Name: "Availability", Unit: "%"},
			{Name: "Recovered", Unit: "count"},
			{Name: "Replay p50", Unit: "instructions"},
		},
		Trials: opt.Point.MaxTrials,
		Seed:   opt.Point.ScheduleSeed(),
		Policy: opt.Policy.String(),
	}
	recoveries := []int{0, availabilityRecoveries}
	pts := make([]campaign.Point, len(recoveries))
	for i, maxRec := range recoveries {
		pts[i] = opt.base()
		pts[i].Errors, pts[i].MaxRecoveries = 1, maxRec
	}
	for _, a := range all.Apps() {
		sub, err := campaign.NewSubject(a.Source(), opt.Policy, &harden.Options{DupCompare: true, Signatures: true})
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", a.Name(), err)
		}
		e, err := sub.Engine(campaign.Detection, a.Input(), apps.Scorer(a), campaign.Config{})
		if err != nil {
			return nil, fmt.Errorf("exp: %s (hardened): %w", a.Name(), err)
		}
		points := opt.sweep(ctx, e, pts)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, p := range points {
			pcts := func(n int) float64 { return 100 * float64(n) / float64(p.Trials) }
			mode := "off"
			if recoveries[i] > 0 {
				mode = fmt.Sprintf("×%d", recoveries[i])
			}
			r.Rows = append(r.Rows, []Cell{
				CellStr(a.Name()),
				CellStr(mode),
				CellNum(pct(pcts(p.Tolerated)), pcts(p.Tolerated)),
				CellNum(pct(p.DetectPct), p.DetectPct),
				CellNum(pct(pcts(p.Untolerated)), pcts(p.Untolerated)),
				CellCI(pct(p.AvailabilityPct), p.AvailabilityPct, p.AvailabilityLowPct, p.AvailabilityHighPct),
				CellInt(p.Recovered),
				CellNum(fmt.Sprintf("%d", p.RecoverLatencyP50), float64(p.RecoverLatencyP50)),
			})
		}
	}
	return r, nil
}
