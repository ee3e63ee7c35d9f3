package exp

import (
	"context"
	"fmt"
	"strings"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
)

// Table1 reproduces Table 1: applications and fidelity measures. It is
// static — no campaigns run.
func Table1() *Report {
	r := &Report{
		ID:    "table1",
		Kind:  KindTable,
		Title: "Table 1: applications and fidelity measures",
		Columns: []Column{
			{Name: "Application"},
			{Name: "Description"},
			{Name: "Fidelity measure"},
		},
	}
	for _, a := range all.Apps() {
		r.Rows = append(r.Rows, []Cell{CellStr(a.Name()), CellStr(a.Title()), CellStr(a.FidelityName())})
	}
	return r
}

// table2Errors mirrors the paper's per-application error counts: the
// lowest rate at which the unprotected application failed everywhere, and
// a higher rate.
var table2Errors = map[string][]int{
	"susan":    {2200},
	"mpeg":     {20, 120},
	"mcf":      {1, 340},
	"blowfish": {2, 20},
	"gsm":      {10, 40},
	"art":      {4},
	"adpcm":    {3, 56},
}

// Table2 runs the failure-rate experiment for every benchmark: the
// paper's Table 2, catastrophic failures with and without protecting
// control data. The failure-rate cells carry Wilson 95% bounds in the
// JSON/CSV renderings.
func Table2(ctx context.Context, opt Options) (*Report, error) {
	r := &Report{
		ID:   "table2",
		Kind: KindTable,
		Title: fmt.Sprintf("Table 2: %% catastrophic failures (crash or infinite run) with and without\nprotecting control data (%d trials per point)",
			opt.Point.MaxTrials),
		Columns: []Column{
			{Name: "Algorithm"},
			{Name: "Errors", Unit: "count"},
			{Name: "Instructions", Unit: "count"},
			{Name: "Fail (protected)", Unit: "%"},
			{Name: "Fail (unprotected)", Unit: "%"},
		},
		Trials: opt.Point.MaxTrials,
		Seed:   opt.Point.ScheduleSeed(),
		Policy: opt.Policy.String(),
	}
	for _, a := range all.Apps() {
		es, err := engines(a.Name(), opt.Policy, campaign.Protected, campaign.Unprotected)
		if err != nil {
			return nil, err
		}
		errs := table2Errors[a.Name()]
		pts := campaign.ErrorPoints(opt.base(), errs)
		on := opt.sweep(ctx, es[0], pts)
		off := opt.sweep(ctx, es[1], pts)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		instr := es[0].Clean.Instret
		for i, n := range errs {
			r.Rows = append(r.Rows, []Cell{
				CellStr(a.Name()),
				CellInt(n),
				CellNum(fmt.Sprintf("%dM", instr/1_000_000), float64(instr)),
				CellCI(pct(on[i].FailPct), on[i].FailPct, on[i].FailLowPct, on[i].FailHighPct),
				CellCI(pct(off[i].FailPct), off[i].FailPct, off[i].FailLowPct, off[i].FailHighPct),
			})
		}
	}
	return r, nil
}

// Table3 reproduces Table 3 — dynamic low-reliability instruction
// fractions under the analysis — measured on clean runs (no injection
// involved).
func Table3(ctx context.Context, opt Options) (*Report, error) {
	r := &Report{
		ID:   "table3",
		Kind: KindTable,
		Title: fmt.Sprintf("Table 3: dynamic instructions identified as not leading to control\n(policy: %s) — these could run in a low-reliability environment",
			opt.Policy),
		Columns: []Column{
			{Name: "Algorithm"},
			{Name: "Instructions", Unit: "count"},
			{Name: "% low-rel (dynamic)", Unit: "%"},
			{Name: "% tagged (static)", Unit: "%"},
			{Name: "% arith (dynamic)", Unit: "%"},
		},
		Seed:   opt.Point.ScheduleSeed(),
		Policy: opt.Policy.String(),
	}
	for _, a := range all.Apps() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sub, clean, err := cleanRun(a.Name(), opt.Policy)
		if err != nil {
			return nil, err
		}
		arith := clean.ClassCounts[1] // isa.ClassArith
		instret := clean.Instret
		lowRel := 100 * clean.EligibleFraction()
		tagged := 0 // the protected mask is the analysis's tagged set
		for _, t := range sub.Mask(campaign.Protected) {
			if t {
				tagged++
			}
		}
		static := 100 * float64(tagged) / float64(len(sub.Prog.Text))
		arithPct := 100 * float64(arith) / float64(instret)
		r.Rows = append(r.Rows, []Cell{
			CellStr(a.Name()),
			CellNum(fmt.Sprintf("%.1fM", float64(instret)/1e6), float64(instret)),
			CellNum(pct(lowRel), lowRel),
			CellNum(pct(static), static),
			CellNum(pct(arithPct), arithPct),
		})
	}
	return r, nil
}

// PolicyAblation measures susan, blowfish and mcf under all three
// policies at a fixed error count: the coverage/failure trade-off of the
// analysis policies.
func PolicyAblation(ctx context.Context, opt Options) (*Report, error) {
	r := &Report{
		ID:   "ablation",
		Kind: KindTable,
		Title: fmt.Sprintf("Policy ablation: coverage/failure trade-off of the analysis policies\n(%d trials per point, protection on)",
			opt.Point.MaxTrials),
		Columns: []Column{
			{Name: "Algorithm"},
			{Name: "Policy"},
			{Name: "Errors", Unit: "count"},
			{Name: "% low-rel (dynamic)", Unit: "%"},
			{Name: "Fail %", Unit: "%"},
		},
		Trials: opt.Point.MaxTrials,
		Seed:   opt.Point.ScheduleSeed(),
	}
	errorsFor := map[string]int{"susan": 200, "blowfish": 20, "mcf": 40}
	for _, name := range []string{"susan", "blowfish", "mcf"} {
		for _, pol := range []core.Policy{core.PolicyControl, core.PolicyControlAddr, core.PolicyConservative} {
			es, err := engines(name, pol, campaign.Protected)
			if err != nil {
				return nil, err
			}
			pt := opt.base()
			pt.Errors = errorsFor[name]
			p := es[0].RunPoint(ctx, pt, opt.Observer)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lowRel := 100 * es[0].EligibleFraction()
			r.Rows = append(r.Rows, []Cell{
				CellStr(name),
				CellStr(pol.String()),
				CellInt(errorsFor[name]),
				CellNum(pct(lowRel), lowRel),
				CellCI(pct(p.FailPct), p.FailPct, p.FailLowPct, p.FailHighPct),
			})
		}
	}
	return r, nil
}

// appByNameOrErr fetches a registered app.
func appByNameOrErr(name string) (apps.App, error) {
	a, ok := all.ByName(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown app %q (have %s)", name, strings.Join(all.Names(), ", "))
	}
	return a, nil
}
