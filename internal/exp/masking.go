package exp

import (
	"context"
	"fmt"

	"etap/internal/apps/all"
)

// Masking measures the paper's framing premise: the introduction positions
// error tolerance as the step beyond the architectural vulnerability
// factor ("the potential that a soft error is masked ... we take
// soft-error tolerance one step further"). With exactly one error injected
// into a protected (tagged-only) run, each trial lands in one of four
// bins:
//
//	masked      — output identical to the fault-free run (the AVF bin);
//	tolerated   — output differs but passes the fidelity threshold
//	              (the paper's contribution: errors an AVF analysis counts
//	              as failures that users never notice);
//	degraded    — output below the fidelity threshold;
//	catastrophic — crash or infinite run.
func Masking(ctx context.Context, opt Options) (*Report, error) {
	r := &Report{
		ID:   "masking",
		Kind: KindTable,
		Title: fmt.Sprintf("Single-error outcome distribution under protection (%d trials):\nmasked = output identical (the AVF bin); tolerated = differs but passes\nthe fidelity threshold (the paper's added tolerance); degraded = below\nthreshold; catastrophic = crash/hang",
			opt.Point.MaxTrials),
		Columns: []Column{
			{Name: "Algorithm"},
			{Name: "Masked", Unit: "%"},
			{Name: "Tolerated", Unit: "%"},
			{Name: "Degraded", Unit: "%"},
			{Name: "Catastrophic", Unit: "%"},
		},
		Trials: opt.Point.MaxTrials,
		Seed:   opt.Point.ScheduleSeed(),
		Policy: opt.Policy.String(),
	}
	pt := opt.base()
	pt.Errors = 1
	for _, a := range all.Apps() {
		b, err := Build(a, opt.Policy)
		if err != nil {
			return nil, err
		}
		// The engine's point aggregation already separates the four bins:
		// masked (bit-identical output), accepted ⊇ masked (passes the
		// threshold) and catastrophic (crash/hang).
		p := b.On.RunPoint(ctx, pt, opt.Observer)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pcts := func(n int) float64 { return 100 * float64(n) / float64(p.Trials) }
		masked, tolerated := pcts(p.Masked), pcts(p.Accepted-p.Masked)
		degraded, catastrophic := pcts(p.Completed-p.Accepted), pcts(p.Crashes+p.Timeouts)
		r.Rows = append(r.Rows, []Cell{
			CellStr(a.Name()),
			CellNum(pct(masked), masked),
			CellNum(pct(tolerated), tolerated),
			CellNum(pct(degraded), degraded),
			CellNum(pct(catastrophic), catastrophic),
		})
	}
	return r, nil
}
