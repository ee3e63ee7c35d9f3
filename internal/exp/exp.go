// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Tables 1–3, Figures 1–6) plus the
// policy ablation described in DESIGN.md. Everything is deterministic
// given Options.Seed; trials run on the checkpointed, sharded campaign
// engine (internal/campaign), so results are reproducible for any worker
// count.
package exp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"

	"etap/internal/apps"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/isa"
	"etap/internal/minic"
	"etap/internal/sim"
)

// Options controls experiment scale and reproducibility.
type Options struct {
	// Trials per measurement point. Defaults to 40.
	Trials int
	// Policy for the protected configuration. The zero value,
	// PolicyControl, is the paper's literal Section 3 analysis; DESIGN.md
	// explains why the headline experiments use PolicyControlAddr (set by
	// DefaultOptions), which additionally protects address computations the
	// way the authors' companion work separates address operations.
	Policy core.Policy
	// Workers for the trial pool. Defaults to GOMAXPROCS.
	Workers int
	// Seed makes every injection schedule reproducible. Defaults to 1.
	Seed int64
	// Observer, when non-nil, receives every aggregated trial of every
	// campaign point an experiment runs, in deterministic order. It is
	// for progress display; it never changes results.
	Observer campaign.Observer
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 40
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DefaultOptions is the configuration used to regenerate EXPERIMENTS.md:
// the address-protecting policy and full trial counts.
func DefaultOptions() Options {
	return Options{Policy: core.PolicyControlAddr}.withDefaults()
}

// Built is one benchmark compiled, analyzed and ready for injection
// campaigns in both protection modes.
type Built struct {
	App    apps.App
	Prog   *isa.Program
	Report *core.Report
	// On injects only into analysis-tagged instructions (protection on);
	// Off injects into every arithmetic instruction (unchanged program on
	// unreliable hardware).
	On, Off *campaign.Engine
	Golden  []byte
}

// Build compiles and analyzes one benchmark and prepares both campaign
// engines (golden pass plus checkpoints each). It cross-checks the clean
// simulated output against the app's pure-Go reference so a toolchain
// regression cannot silently skew results.
func Build(app apps.App, pol core.Policy) (*Built, error) {
	prog, err := minic.Build(app.Source())
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", app.Name(), err)
	}
	rep, err := core.Analyze(prog, pol)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", app.Name(), err)
	}
	cfg := sim.Config{Input: app.Input()}
	score := apps.Scorer(app)
	on, err := campaign.New(prog, rep.Tagged, cfg, campaign.Config{})
	if err != nil {
		return nil, fmt.Errorf("exp: %s (protected): %w", app.Name(), err)
	}
	on.Score = score
	off, err := campaign.New(prog, core.EligibleAll(prog), cfg, campaign.Config{})
	if err != nil {
		return nil, fmt.Errorf("exp: %s (unprotected): %w", app.Name(), err)
	}
	off.Score = score
	if !bytes.Equal(on.Clean.Output, app.Reference()) {
		return nil, fmt.Errorf("exp: %s: simulated clean output differs from Go reference", app.Name())
	}
	return &Built{App: app, Prog: prog, Report: rep, On: on, Off: off, Golden: on.Clean.Output}, nil
}

// point is the campaign point opt describes at n errors.
func (o Options) point(n int) campaign.Point {
	o = o.withDefaults()
	return campaign.Point{Errors: n, HiBit: 31, MaxTrials: o.Trials, Seed: o.Seed, Workers: o.Workers}
}

// RunPoint executes trials with n errors on campaign engine c. A
// cancelled context yields a partial point; callers that care check
// ctx.Err afterwards.
func (b *Built) RunPoint(ctx context.Context, c *campaign.Engine, n int, opt Options) campaign.PointResult {
	return c.RunPoint(ctx, opt.point(n), opt.Observer)
}

// Sweep runs one point per error count on c (campaign.Engine.Sweep),
// stopping early when ctx is cancelled.
func (b *Built) Sweep(ctx context.Context, c *campaign.Engine, errorCounts []int, opt Options) []campaign.PointResult {
	var observe campaign.SweepObserver
	if opt.Observer != nil {
		observe = func(_, trial int, tr campaign.Trial) { opt.Observer(trial, tr) }
	}
	return c.Sweep(ctx, campaign.ErrorPoints(opt.point(0), errorCounts), observe)
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
