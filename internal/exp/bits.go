package exp

import (
	"context"
	"fmt"

	"etap/internal/campaign"
)

// BitSensitivity is a DESIGN.md extension experiment: how much does it
// matter *where in the word* an upset lands? Flips are restricted to byte
// lanes of the 32-bit result. For data values the high lanes carry more
// numeric weight (larger fidelity dents), and for values that are secretly
// addresses or loop-bound material the high lanes are catastrophic —
// protected runs make the first effect visible in isolation, unprotected
// runs show the second. Blowfish and gsm are measured across the four
// byte lanes.
func BitSensitivity(ctx context.Context, opt Options) (*Report, error) {
	const errs = 10
	r := &Report{
		ID:   "bits",
		Kind: KindTable,
		Title: fmt.Sprintf("Bit-lane sensitivity: %d errors restricted to one byte lane of the\nresult word (%d trials per point)",
			errs, opt.Point.MaxTrials),
		Columns: []Column{
			{Name: "Algorithm"},
			{Name: "Protection"},
			{Name: "Flipped lane"},
			{Name: "Fail %", Unit: "%"},
			{Name: "Mean fidelity"},
		},
		Trials: opt.Point.MaxTrials,
		Seed:   opt.Point.ScheduleSeed(),
		Policy: opt.Policy.String(),
	}
	lanes := [][2]uint8{{0, 7}, {8, 15}, {16, 23}, {24, 31}}
	pts := make([]campaign.Point, len(lanes))
	for i, lane := range lanes {
		pts[i] = opt.base()
		pts[i].Errors, pts[i].LoBit, pts[i].HiBit = errs, lane[0], lane[1]
	}
	for _, name := range []string{"blowfish", "gsm"} {
		es, err := engines(name, opt.Policy, campaign.Protected, campaign.Unprotected)
		if err != nil {
			return nil, err
		}
		for k, mode := range []string{"on", "off"} {
			points := opt.sweep(ctx, es[k], pts)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for i, p := range points {
				r.Rows = append(r.Rows, []Cell{
					CellStr(name),
					CellStr(mode),
					CellStr(fmt.Sprintf("bits %d-%d", lanes[i][0], lanes[i][1])),
					CellCI(pct(p.FailPct), p.FailPct, p.FailLowPct, p.FailHighPct),
					CellNum(num(p.MeanValue), p.MeanValue),
				})
			}
		}
	}
	return r, nil
}
