// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Tables 1–3, Figures 1–6) plus the
// policy ablation described in DESIGN.md. Everything is deterministic
// given the seed of Options.Point; trials run on the checkpointed,
// sharded campaign engine (internal/campaign), so results are
// reproducible for any worker count.
package exp

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"etap/internal/apps"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/sim"
)

// Options controls experiment scale and reproducibility.
type Options struct {
	// Point carries the trial budget (MaxTrials), seed and worker count
	// of every measurement point. Its other fields are ignored:
	// experiments fix their own error counts, bit lanes and recovery
	// budgets (see base).
	Point campaign.Point
	// Policy for the protected configuration. The zero value,
	// PolicyControl, is the paper's literal Section 3 analysis; DESIGN.md
	// explains why the headline experiments use PolicyControlAddr, which
	// additionally protects address computations the way the authors'
	// companion work separates address operations.
	Policy core.Policy
	// Observer, when non-nil, receives every aggregated trial of every
	// campaign point an experiment runs, in deterministic order. It is
	// for progress display; it never changes results.
	Observer campaign.Observer
}

// base is the point every measurement starts from: the whole result
// word, with the template's trial budget, seed and workers.
func (o Options) base() campaign.Point {
	return campaign.Point{HiBit: 31, MaxTrials: o.Point.MaxTrials, Seed: o.Point.Seed, Workers: o.Point.Workers}
}

// sweep runs pts on e (campaign.Engine.Sweep), feeding every trial to
// the Observer.
func (o Options) sweep(ctx context.Context, e *campaign.Engine, pts []campaign.Point) []campaign.PointResult {
	return e.Sweep(ctx, pts, o.Observer.ForSweep())
}

// engines builds the named benchmark's campaign engine for each mode, in
// order: one compile and analysis under pol, then one golden pass per
// engine, so an experiment pays only for the modes it reads. It
// cross-checks the clean simulated output against the app's pure-Go
// reference so a toolchain regression cannot silently skew results.
func engines(name string, pol core.Policy, modes ...campaign.Mode) ([]*campaign.Engine, error) {
	a, sub, err := subject(name, pol)
	if err != nil {
		return nil, err
	}
	es := make([]*campaign.Engine, len(modes))
	for i, mode := range modes {
		if es[i], err = sub.Engine(mode, a.Input(), apps.Scorer(a), campaign.Config{}); err != nil {
			return nil, fmt.Errorf("exp: %s (%s): %w", name, mode, err)
		}
	}
	if !bytes.Equal(es[0].Clean.Output, a.Reference()) {
		return nil, fmt.Errorf("exp: %s: simulated clean output differs from Go reference", name)
	}
	return es, nil
}

// cleanRun runs the named benchmark once, fault-free, under pol's
// protected mask: one compile and analysis and one plain sim.Run, for
// experiments that read only clean-run counts and need no campaign
// engine. It makes the same Go-reference cross-check as engines.
func cleanRun(name string, pol core.Policy) (*campaign.Subject, sim.Result, error) {
	a, sub, err := subject(name, pol)
	if err != nil {
		return nil, sim.Result{}, err
	}
	res := sim.Run(sub.Prog, sim.Config{Input: a.Input(), Plan: &sim.FaultPlan{Eligible: sub.Mask(campaign.Protected)}})
	if res.Outcome != sim.OK || !bytes.Equal(res.Output, a.Reference()) {
		return nil, sim.Result{}, fmt.Errorf("exp: %s: simulated clean run (%s) differs from Go reference", name, res.Outcome)
	}
	return sub, res, nil
}

// subject compiles and analyzes the named benchmark under pol.
func subject(name string, pol core.Policy) (apps.App, *campaign.Subject, error) {
	a, err := appByNameOrErr(name)
	if err != nil {
		return nil, nil, err
	}
	sub, err := campaign.NewSubject(a.Source(), pol, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: %s: %w", name, err)
	}
	return a, sub, nil
}

func pct(f float64) string {
	if math.IsNaN(f) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", f)
}

func num(f float64) string {
	if math.IsNaN(f) {
		return "-"
	}
	return fmt.Sprintf("%.1f", f)
}
