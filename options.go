package etap

import (
	"etap/internal/campaign"
	"etap/internal/exp"
	"etap/internal/sim"
)

// ProgressEvent is one trial of a running campaign point, streamed to a
// WithProgress observer in deterministic order: trial index, how the
// trial ended, how many instructions it retired, and which shard drew
// it.
type ProgressEvent struct {
	// Trial is the zero-based index of the trial within its point.
	Trial int
	// Outcome classifies the trial.
	Outcome Outcome
	// Instructions is the trial's retired instruction count.
	Instructions uint64
	// Shard is the shard whose RNG stream drew the trial; the
	// trial→shard mapping is deterministic, the trial→worker mapping is
	// not.
	Shard int
}

// Option configures a campaign point or an experiment run. The same set
// serves Campaign.RunPoint, Campaign.Sweep and Experiment.Run; options
// that do not apply to a call are ignored.
type Option func(*runConfig)

// runConfig is the collapsed option set behind the Option functions:
// the campaign knobs land on a template campaign.Point, the only place
// a point is specified.
type runConfig struct {
	pt        campaign.Point
	policy    Policy
	policySet bool
	progress  func(ProgressEvent)
}

func applyOptions(opts []Option) runConfig {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithTrials sets the trial budget per measurement point. Zero or
// negative keeps the default (40).
func WithTrials(n int) Option {
	return func(c *runConfig) { c.pt.MaxTrials = n }
}

// WithMinTrials sets the trial floor before WithStopCI early stopping may
// trigger; 0 picks a default scaled to the budget.
func WithMinTrials(n int) Option {
	return func(c *runConfig) { c.pt.MinTrials = n }
}

// WithSeed makes every injection schedule reproducible in s. Defaults
// to 1.
func WithSeed(s int64) Option {
	return func(c *runConfig) { c.pt.Seed = s }
}

// WithWorkers sizes the trial worker pool; 0 means GOMAXPROCS. Worker
// count never changes results.
func WithWorkers(n int) Option {
	return func(c *runConfig) { c.pt.Workers = n }
}

// WithStopCI stops a point early once every reported Wilson 95%
// confidence interval — the catastrophic-failure rate and, for hardened
// systems, the detection rate — is narrower than width (e.g. 0.05 for
// ±2.5 points), but not before the WithMinTrials floor.
func WithStopCI(width float64) Option {
	return func(c *runConfig) { c.pt.StopWidth = width }
}

// WithRecovery lets a detected trial roll back to the latest checkpoint
// strictly before the detection point and replay, up to maxAttempts
// restore-replay rounds per trial within the trial's instruction budget.
// A replay that completes with output bit-identical to the fault-free run
// classifies Recovered; one that completes with different output stays
// Completed (a degraded result); exhausting attempts or budget leaves the
// trial Detected. Zero or negative keeps recovery off — detection stays
// terminal and results are bit-identical to campaigns without the option.
func WithRecovery(maxAttempts int) Option {
	return func(c *runConfig) { c.pt.MaxRecoveries = maxAttempts }
}

// WithPolicy selects the analysis policy for experiment runs (campaign
// calls ignore it — their policy was fixed at Build time). Defaults to
// PolicyControlAddr, the configuration the paper's headline results use.
func WithPolicy(p Policy) Option {
	return func(c *runConfig) { c.policy = p; c.policySet = true }
}

// WithProgress streams every aggregated trial to fn in deterministic
// order. fn runs on the aggregation goroutine: it needs no locking, but
// a slow fn backpressures the campaign.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(c *runConfig) { c.progress = fn }
}

// observer adapts the progress callback to the campaign engine's
// observer interface.
func (c runConfig) observer() campaign.Observer {
	if c.progress == nil {
		return nil
	}
	fn := c.progress
	return func(trial int, tr campaign.Trial) {
		fn(ProgressEvent{
			Trial:        trial,
			Outcome:      outcomeFromSim(tr.Outcome),
			Instructions: tr.Instret,
			Shard:        tr.Shard,
		})
	}
}

// point is the engine-level point spec for a campaign call at the given
// error count, over the full result word. It holds the trial default
// (40); the engine defaults the seed and the worker count.
func (c runConfig) point(errors int) campaign.Point {
	pt := c.pt
	pt.Errors, pt.HiBit = errors, 31
	if pt.MaxTrials <= 0 {
		pt.MaxTrials = 40
	}
	if pt.MaxRecoveries < 0 {
		pt.MaxRecoveries = 0
	}
	return pt
}

// expOptions assembles the experiment-harness options for a registry
// run. Experiments take only the trial budget, seed and workers from the
// template point.
func (c runConfig) expOptions() exp.Options {
	policy := PolicyControlAddr
	if c.policySet {
		policy = c.policy
	}
	return exp.Options{
		Point:    c.point(0),
		Policy:   toCore(policy),
		Observer: c.observer(),
	}
}

// outcomeFromSim maps an engine outcome to the public enum.
func outcomeFromSim(o sim.Outcome) Outcome {
	switch o {
	case sim.Crash:
		return Crashed
	case sim.Timeout:
		return TimedOut
	case sim.Detected:
		return Detected
	case sim.Recovered:
		return Recovered
	default:
		return Completed
	}
}
