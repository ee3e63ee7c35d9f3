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

// Built is one benchmark compiled, analyzed and ready for injection
// campaigns in both protection modes.
type Built struct {
	Report *core.Report
	// On injects only into analysis-tagged instructions (protection on);
	// Off injects into every arithmetic instruction (unchanged program on
	// unreliable hardware).
	On, Off *campaign.Engine
}

// Build compiles and analyzes one benchmark and prepares both campaign
// engines (golden pass plus checkpoints each). It cross-checks the clean
// simulated output against the app's pure-Go reference so a toolchain
// regression cannot silently skew results.
func Build(app apps.App, pol core.Policy) (*Built, error) {
	sub, err := campaign.NewSubject(app.Source(), pol, nil)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", app.Name(), err)
	}
	engines := make([]*campaign.Engine, 2)
	for i, mode := range []campaign.Mode{campaign.Protected, campaign.Unprotected} {
		if engines[i], err = sub.Engine(mode, app.Input(), apps.Scorer(app), campaign.Config{}); err != nil {
			return nil, fmt.Errorf("exp: %s (%s): %w", app.Name(), mode, err)
		}
	}
	if !bytes.Equal(engines[0].Clean.Output, app.Reference()) {
		return nil, fmt.Errorf("exp: %s: simulated clean output differs from Go reference", app.Name())
	}
	return &Built{Report: sub.Report, On: engines[0], Off: engines[1]}, nil
}

// TaggedDynamicPct is Table 3's "% low reliability instructions": the
// dynamic fraction of the clean run spent in analysis-tagged instructions.
func (b *Built) TaggedDynamicPct() float64 { return 100 * b.On.EligibleFraction() }

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
