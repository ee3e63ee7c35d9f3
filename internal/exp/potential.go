package exp

import (
	"context"
	"fmt"

	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
)

// Potential reproduces Section 5.3 of the paper ("Future Potential"): if
// a protected instruction costs r times an unprotected one (r = 2 for
// dual redundant execution with retry, r = 3 for TMR), the speedup of
// selective protection over protecting everything is
//
//	speedup(r) = (N·r) / (N_protected·r + N_tagged·1)
//
// where the counts are dynamic. The same figure reads as an
// energy-saving ratio under an energy-proportional cost model. The
// analysis runs over every benchmark, under both the paper's control-only
// slice and the address-protecting policy.
func Potential(ctx context.Context, opt Options) (*Report, error) {
	r := &Report{
		ID:    "potential",
		Kind:  KindTable,
		Title: "Future potential (paper §5.3): speedup of protecting only control data\nover protecting everything, for dual-redundant (2x) and TMR (3x) hardware",
		Columns: []Column{
			{Name: "Algorithm"},
			{Name: "Policy"},
			{Name: "% low-rel (dynamic)", Unit: "%"},
			{Name: "Speedup (DMR)", Unit: "x"},
			{Name: "Speedup (TMR)", Unit: "x"},
		},
	}
	for _, a := range all.Apps() {
		for _, pol := range []core.Policy{core.PolicyControl, core.PolicyControlAddr} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			es, err := engines(a.Name(), pol, campaign.Protected)
			if err != nil {
				return nil, err
			}
			frac := es[0].EligibleFraction() // tagged share of the dynamic stream
			speedup := func(r float64) float64 {
				return r / ((1-frac)*r + frac)
			}
			r.Rows = append(r.Rows, []Cell{
				CellStr(a.Name()),
				CellStr(pol.String()),
				CellNum(pct(100*frac), 100*frac),
				CellNum(fmt.Sprintf("%.2fx", speedup(2)), speedup(2)),
				CellNum(fmt.Sprintf("%.2fx", speedup(3)), speedup(3)),
			})
		}
	}
	return r, nil
}
