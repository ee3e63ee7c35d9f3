// Package campaign is the high-throughput fault-injection campaign
// engine. It combines three mechanisms so that characterization sweeps
// run as fast as the hardware allows:
//
//   - Checkpointed trials: the engine records one golden pass with
//     sim.Record and starts every faulty trial from the latest checkpoint
//     before its first injection point instead of from instruction zero.
//     Checkpoint memory is shared copy-on-write, so trials are cheap to
//     fork and bit-identical to from-scratch runs.
//
//   - Sharded execution: trials are grouped into fixed-size shards, each
//     with its own deterministic RNG stream derived from (seed, point,
//     shard index). Workers pull whole shards, and the aggregator folds
//     shard results back in shard order, so a campaign's numbers are
//     reproducible for any worker count.
//
//   - Streaming aggregation: outcome counters and fidelity sums update
//     online as shards complete, with Wilson confidence intervals on the
//     catastrophic-failure rate; a point can stop early once its interval
//     is narrower than a target width.
//
// docs/CAMPAIGN.md describes the architecture and the reasoning behind
// the checkpoint-interval and early-stop choices.
package campaign

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"etap/internal/analysis"
	"etap/internal/fault"
	"etap/internal/isa"
	obstrace "etap/internal/obs/trace"
	"etap/internal/sim"
)

// ScoreFunc evaluates a completed trial's output against the golden
// output, returning the application's fidelity value and whether it passes
// the acceptability threshold. It must be a pure function of the byte
// contents: the engine synthesizes statically-pruned trials by scoring
// the golden output against itself, and purity is what keeps that
// bit-identical to scoring the (equal) simulated output.
type ScoreFunc func(golden, output []byte) (value float64, acceptable bool)

// Config parameterises an Engine. Everything that specifies a
// measurement — trial budget, seed, workers — lives on Point.
type Config struct {
	// ShardSize is the number of trials per shard, the unit of work
	// distribution, RNG streaming and early-stop decisions. Defaults
	// to 32.
	ShardSize int
	// DisablePrune turns off static injection pruning, forcing every
	// trial through the simulator. Pruning never changes results — the
	// differential tests pin pruned and unpruned campaigns bit-identical
	// — so this exists for those tests and for benchmarking the win.
	DisablePrune bool
}

// Engine runs fault-injection campaigns for one program, input and
// eligibility mask. Constructing it performs the golden pass (recording
// checkpoints along the way); the engine is then safe for concurrent use.
type Engine struct {
	Prog     *isa.Program
	Eligible []bool
	// Clean is the fault-free reference run.
	Clean sim.Result
	// Budget is the instruction limit applied to faulty trials; exceeding
	// it classifies a trial as an infinite execution.
	Budget uint64
	// Score, when non-nil, grades completed trials. Without it a
	// completed trial counts as acceptable only when its output is
	// bit-identical to the clean output.
	Score ScoreFunc
	// DetectClass, when non-nil, classifies a Detected trial's
	// sim.Result.DetectPC into the transform kind that caught it
	// ("dup", "cfs"); hardened subjects wire it to
	// harden.Result.CheckKindAt. It labels the detection-latency
	// histogram and trial records; it never influences trial execution
	// or aggregation.
	DetectClass func(pc int) string

	rec       *sim.Recording
	shardSize int

	// Static injection pruning: the golden pass marks the statically
	// benign sites (class.Benign), so rec.Marked(o) answers whether
	// eligible-stream ordinal o strikes one at zero extra passes. class
	// is nil when pruning is disabled or the program's CFG defeats
	// classification; pruned counts skipped trials.
	class  *analysis.Classification
	pruned atomic.Uint64
}

// New prepares an engine. simCfg.Plan and simCfg.MaxInstr are managed by
// the engine and must be unset.
func New(p *isa.Program, eligible []bool, simCfg sim.Config, cfg Config) (*Engine, error) {
	if simCfg.Plan != nil {
		return nil, fmt.Errorf("campaign: simCfg.Plan is managed by the engine")
	}
	if simCfg.MaxInstr != 0 {
		return nil, fmt.Errorf("campaign: simCfg.MaxInstr is managed by the engine")
	}
	if len(eligible) != len(p.Text) {
		return nil, fmt.Errorf("campaign: eligibility mask has %d entries for %d instructions", len(eligible), len(p.Text))
	}
	if !fault.AnyEligible(eligible) {
		return nil, fmt.Errorf("campaign: eligibility mask marks no instructions; nothing to inject into")
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 32
	}
	probe := simCfg
	probe.Plan = &sim.FaultPlan{Eligible: eligible}

	// Static pruning setup: classify fault sites once and let the golden
	// pass, which already walks the whole eligible stream, mark which
	// ordinals strike benign sites. Classification failure — e.g. a
	// hand-written program whose control flow the CFG builder rejects —
	// silently disables pruning; the campaign still runs, every trial
	// simulated.
	var cls *analysis.Classification
	var benign []bool
	if !cfg.DisablePrune {
		if c, err := analysis.Classify(p); err == nil {
			cls, benign = c, c.Benign
		}
	}

	rec, err := sim.Record(p, probe, sim.RecordOptions{}, benign...)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	clean := rec.Result
	if clean.Outcome != sim.OK {
		return nil, fmt.Errorf("campaign: clean run did not complete: %s (trap: %s)", clean.Outcome, clean.Trap)
	}
	if clean.EligibleExec == 0 {
		return nil, fmt.Errorf("campaign: no eligible instructions executed; nothing to inject into")
	}
	e := &Engine{
		Prog:      p,
		Eligible:  eligible,
		Clean:     clean,
		Budget:    clean.Instret*16 + 10_000_000,
		rec:       rec,
		shardSize: cfg.ShardSize,
		class:     cls,
	}
	return e, nil
}

// PruningEnabled reports whether static injection pruning is active.
func (e *Engine) PruningEnabled() bool { return e.class != nil }

// StaticPruneFraction is the fraction of the clean run's eligible
// stream that strikes statically benign sites — the share of the
// single-fault trial space the engine can skip without simulating.
func (e *Engine) StaticPruneFraction() float64 {
	if e.class == nil || e.Clean.EligibleExec == 0 {
		return 0
	}
	return float64(e.rec.MarkedExec()) / float64(e.Clean.EligibleExec)
}

// PrunedTrials reports how many trials were answered statically instead
// of simulated, across all points run so far.
func (e *Engine) PrunedTrials() uint64 { return e.pruned.Load() }

// planBenign reports whether every injection of a plan strikes a
// statically benign site (vacuously true for fault-free plans), making
// the whole trial's outcome provably identical to the clean run.
func (e *Engine) planBenign(plan *sim.FaultPlan) bool {
	for _, inj := range plan.Injections {
		if !e.rec.Marked(inj.At) {
			return false
		}
	}
	return true
}

// Checkpoints reports how many checkpoints the golden pass captured.
func (e *Engine) Checkpoints() int { return len(e.rec.Snapshots()) }

// EligibleFraction is the dynamic fraction of executed instructions that
// were eligible in the clean run.
func (e *Engine) EligibleFraction() float64 {
	if e.Clean.Instret == 0 {
		return 0
	}
	return float64(e.Clean.EligibleExec) / float64(e.Clean.Instret)
}

// RunPlan executes one trial under a prepared plan, resuming from the
// latest checkpoint before the plan's first injection (or, with no
// injections, from the final checkpoint). The plan's eligibility mask must
// be the engine's.
func (e *Engine) RunPlan(plan *sim.FaultPlan) sim.Result {
	return e.rec.RunFrom(e.planIdx(plan), plan, e.Budget)
}

// RunPlanRecover is RunPlan with checkpoint-restore recovery applied to
// Detected trials: up to maxAttempts restore-replay rounds per trial (see
// Point.MaxRecoveries). maxAttempts 0 degenerates to RunPlan.
func (e *Engine) RunPlanRecover(plan *sim.FaultPlan, maxAttempts int) sim.Result {
	return e.rec.RunRecover(e.planIdx(plan), plan, e.Budget, sim.RecoveryPolicy{MaxAttempts: maxAttempts})
}

// planIdx picks the checkpoint a trial plan resumes from.
func (e *Engine) planIdx(plan *sim.FaultPlan) int {
	if len(plan.Injections) > 0 {
		return e.rec.SnapshotBefore(plan.Injections[0].At)
	}
	return len(e.rec.Snapshots()) - 1
}

// Run executes one faulty trial with n errors, deterministic in seed.
func (e *Engine) Run(n int, seed int64) sim.Result {
	return e.RunBits(n, seed, 0, 31)
}

// RunBits is Run with the flipped bit restricted to [loBit, hiBit].
func (e *Engine) RunBits(n int, seed int64, loBit, hiBit uint8) sim.Result {
	plan, err := fault.NewPlanBits(e.Eligible, e.Clean.EligibleExec, n, seed, loBit, hiBit)
	if err != nil {
		// New rejects empty eligible streams, so a plan error here means
		// the engine was built by hand around its constructor.
		panic(err)
	}
	return e.RunPlan(plan)
}

// Point specifies one measurement point: how many errors per trial, where
// in the word they may land, and how much statistical work to do.
type Point struct {
	// Errors is the number of bit flips injected per trial.
	Errors int
	// LoBit/HiBit restrict flips to the inclusive bit lane
	// [LoBit, HiBit], with the same semantics as Engine.RunBits: pass
	// 0, 31 for the full word, 0, 0 for bit zero only. HiBit above 31
	// clamps to 31; LoBit above HiBit collapses to HiBit.
	LoBit, HiBit uint8
	// MaxTrials is the trial budget for the point.
	MaxTrials int
	// MinTrials is the floor before early stopping may trigger. Defaults
	// to 2 shards' worth, clamped to half the trial budget so StopWidth
	// stays meaningful for small budgets.
	MinTrials int
	// StopWidth, when positive, stops the point early once every
	// reported Wilson 95% interval — the catastrophic-failure rate and
	// the detection rate — is narrower than this fraction (e.g. 0.05
	// for ±2.5 points), so detection campaigns converge on the number
	// they exist to measure.
	StopWidth float64
	// Seed is the base seed of the point's trial schedule; 0 means 1
	// (see ScheduleSeed).
	Seed int64
	// Workers sizes the point's worker pool; 0 means GOMAXPROCS. Never
	// affects results.
	Workers int
	// MaxRecoveries enables checkpoint-restore recovery for Detected
	// trials: a trapdet rolls the trial back to the latest checkpoint
	// strictly before the detection point and replays it with the
	// injections that had not yet fired, up to this many restore-replay
	// rounds per trial (see sim.RecoveryPolicy). Zero, the default, keeps
	// detection terminal — the point is then bit-identical to one run
	// before recovery existed.
	MaxRecoveries int
}

// Trial is the record of one executed trial, as seen by RunPoint's
// observer.
type Trial struct {
	Outcome sim.Outcome
	// Value/Acceptable come from the engine's ScoreFunc and are
	// meaningful only for completed trials (Value is NaN without a
	// ScoreFunc).
	Value      float64
	Acceptable bool
	// Masked reports a completed trial whose output is bit-identical to
	// the clean output (the AVF bin).
	Masked   bool
	Instret  uint64
	Injected int
	// Shard is the index of the shard that executed the trial. The
	// trial→shard mapping depends only on the point, never on scheduling.
	Shard int
	// DetectLatency is the injection→trapdet distance in retired
	// instructions; HasLatency reports whether the trial was Detected with
	// a measurable window (see sim.Result.DetectLatency).
	DetectLatency uint64
	HasLatency    bool
	// DetectKind is the transform class ("dup", "cfs") of the trapdet
	// that ended a Detected trial, from the engine's DetectClass;
	// "unknown" for Detected trials without a classifier, "" otherwise.
	DetectKind string
	// RecoveryAttempts counts the checkpoint restore-replay rounds the
	// trial consumed (Point.MaxRecoveries), and RecoverInstret the
	// instructions those replays retired. Both are zero with recovery
	// disabled or for trials that never trapped.
	RecoveryAttempts int
	RecoverInstret   uint64
}

// Observer receives every aggregated trial of a point in deterministic
// order. It runs on the collector goroutine, so no locking is needed, but
// a slow observer backpressures aggregation.
type Observer func(trial int, tr Trial)

// RunPoint executes up to pt.MaxTrials trials, aggregating online and
// early-stopping once the failure-rate confidence interval is tight
// enough. observe, when non-nil, receives every aggregated trial in
// deterministic order (it runs on the collector goroutine; no locking
// needed). Results are identical for any worker count.
//
// Cancelling ctx stops the point between trials: in-flight trials finish
// (a trial is at most one budgeted simulation), no new trials start, and
// the partial aggregate comes back with Cancelled set. A cancelled
// point's numbers depend on how far work had progressed and are NOT
// reproducible; re-running the same point under a live context is
// bit-identical to a never-cancelled run at every worker count.
func (e *Engine) RunPoint(ctx context.Context, pt Point, observe Observer) PointResult {
	if ctx == nil {
		ctx = context.Background()
	}
	campPoints.Inc()
	// Tracing is observational only: spans nest via ctx (HTTP → job →
	// point → shard) and record what ran, never influencing RNG streams,
	// scheduling or aggregation (pinned by the root determinism guard).
	// With no tracer on ctx every span call is a nil no-op.
	ctx, pointSpan := obstrace.Start(ctx, "campaign.point",
		obstrace.Int("errors", int64(pt.Errors)),
		obstrace.Int("max_trials", int64(pt.MaxTrials)))
	defer pointSpan.End()
	// Clamp the lane the same way plan generation will, so reported
	// lanes, shard seeds and the actual flips all agree.
	lo, hi := pt.LoBit, pt.HiBit
	if hi > 31 {
		hi = 31
	}
	if lo > hi {
		lo = hi
	}
	if pt.MaxTrials <= 0 {
		pt.MaxTrials = 1
	}
	seed := pt.ScheduleSeed()
	shardSize := e.shardSize
	if pt.MinTrials <= 0 {
		pt.MinTrials = 2 * shardSize
		if half := pt.MaxTrials / 2; half < pt.MinTrials {
			pt.MinTrials = half
		}
	}
	numShards := (pt.MaxTrials + shardSize - 1) / shardSize
	workers := pt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numShards {
		workers = numShards
	}

	type shardOut struct {
		idx    int
		trials []Trial
	}
	// curtailed records whether cancellation actually cut work short (a
	// shard skipped, truncated, or never fed). A cancel that lands after
	// the full budget ran leaves the point complete and un-flagged.
	var stop, curtailed atomic.Bool
	shardCh := make(chan int)
	outCh := make(chan shardOut, workers)

	go func() {
		defer close(shardCh)
		for s := 0; s < numShards; s++ {
			if stop.Load() {
				return
			}
			select {
			case shardCh <- s:
			case <-ctx.Done():
				curtailed.Store(true)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range shardCh {
				if stop.Load() {
					outCh <- shardOut{s, nil}
					continue
				}
				if ctx.Err() != nil {
					curtailed.Store(true)
					outCh <- shardOut{s, nil}
					continue
				}
				count := shardSize
				if rem := pt.MaxTrials - s*shardSize; rem < count {
					count = rem
				}
				trials := e.runShard(ctx, seed, pt.Errors, lo, hi, pt.MaxRecoveries, s, count)
				if len(trials) < count {
					curtailed.Store(true)
				}
				outCh <- shardOut{s, trials}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outCh)
	}()

	// The collector folds shards in index order so early-stop decisions —
	// and therefore the reported trial count — do not depend on worker
	// scheduling. Shards finished after the stop decision are discarded.
	var a aggregate
	pending := make(map[int][]Trial)
	next, trialBase := 0, 0
	stopped := false
	for out := range outCh {
		if stopped {
			continue
		}
		pending[out.idx] = out.trials
		for !stopped {
			trials, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			for i, tr := range trials {
				a.add(tr)
				if observe != nil {
					observe(trialBase+i, tr)
				}
			}
			trialBase += len(trials)
			next++
			if next < numShards && pt.StopWidth > 0 && a.trials >= pt.MinTrials {
				if a.ciWidth() < pt.StopWidth {
					stopped = true
					stop.Store(true)
				}
			}
		}
	}
	r := a.result(pt.Errors, lo, hi, stopped, curtailed.Load())
	pointSpan.SetAttr(
		obstrace.Int("trials_run", int64(r.Trials)),
		obstrace.Bool("stopped_early", r.EarlyStopped),
		obstrace.Bool("cancelled", r.Cancelled))
	return r
}

// ScheduleSeed is the seed pt's trial schedule derives from: pt.Seed,
// or 1 when the point sets none.
func (pt Point) ScheduleSeed() int64 {
	if pt.Seed != 0 {
		return pt.Seed
	}
	return 1
}

// SweepObserver receives every aggregated trial of a sweep, tagged with
// the index of its point in the sweep. Like Observer it runs on the
// collector goroutine.
type SweepObserver func(point, trial int, tr Trial)

// ErrorPoints expands a template point into one point per error count,
// the shape of every error-count sweep.
func ErrorPoints(tmpl Point, errorCounts []int) []Point {
	pts := make([]Point, len(errorCounts))
	for i, n := range errorCounts {
		pts[i] = tmpl
		pts[i].Errors = n
	}
	return pts
}

// Sweep runs the points in order through RunPoint and returns their
// results. Once ctx is done it starts no further point: the result
// list ends at the interrupted point, which comes back partial with
// Cancelled set (or earlier, if ctx was done before a point started).
// observe, when non-nil, receives every trial with its point index.
func (e *Engine) Sweep(ctx context.Context, pts []Point, observe SweepObserver) []PointResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]PointResult, 0, len(pts))
	for i, pt := range pts {
		if ctx.Err() != nil {
			break
		}
		var obs Observer
		if observe != nil {
			obs = func(trial int, tr Trial) { observe(i, trial, tr) }
		}
		out = append(out, e.RunPoint(ctx, pt, obs))
	}
	return out
}

// runShard executes one shard's trials sequentially off the shard's own
// RNG stream. A cancelled context stops the shard between trials and
// returns the trials finished so far. The whole shard runs on one
// sim.Runner, so machine state, page tables and sparse maps are built once
// and reused across its trials (batched trial scheduling); results stay
// bit-identical to per-trial construction.
func (e *Engine) runShard(ctx context.Context, seed int64, errors int, lo, hi uint8, maxRec, shard, count int) []Trial {
	defer observeShard(time.Now())
	// One span per shard, never per trial: span creation stays off the
	// trial path, and per-trial data rides as bounded span events
	// recorded between trials (outside the engine step loop).
	_, span := obstrace.Start(ctx, "campaign.shard",
		obstrace.Int("shard", int64(shard)),
		obstrace.Int("trials", int64(count)))
	defer span.End()
	rng := rand.New(rand.NewSource(shardSeed(seed, errors, lo, hi, shard)))
	rn := e.rec.NewRunner()
	defer rn.Close()
	trials := make([]Trial, 0, count)
	for i := 0; i < count; i++ {
		if ctx.Err() != nil {
			return trials
		}
		plan, err := fault.NewPlanBitsRand(rng, e.Eligible, e.Clean.EligibleExec, errors, lo, hi)
		if err != nil {
			panic(err) // unreachable: New rejects empty eligible streams
		}
		if e.class != nil && e.planBenign(plan) {
			// Every flip lands in a dead (or discarded) destination, so
			// the execution is provably the clean run: synthesize the
			// trial the simulator would have produced. The plan was still
			// drawn from the RNG stream, so subsequent trials are
			// unaffected. Bit-identity with a simulated run is pinned by
			// TestPruningDifferential.
			tr := Trial{Outcome: sim.OK, Value: math.NaN(), Masked: true,
				Instret: e.Clean.Instret, Injected: len(plan.Injections), Shard: shard}
			if e.Score != nil {
				tr.Value, tr.Acceptable = e.Score(e.Clean.Output, e.Clean.Output)
			} else {
				tr.Acceptable = true
			}
			e.pruned.Add(1)
			campTrialsPruned.Inc()
			countTrial(tr)
			if span != nil && span.EventRoom() > 0 {
				span.Event("trial",
					obstrace.Int("trial", int64(i)),
					obstrace.String("outcome", tr.Outcome.String()),
					obstrace.Int("instret", int64(tr.Instret)),
					obstrace.Bool("pruned", true))
			}
			trials = append(trials, tr)
			continue
		}
		res := rn.RunRecover(e.planIdx(plan), plan, e.Budget, sim.RecoveryPolicy{MaxAttempts: maxRec})
		tr := Trial{Outcome: res.Outcome, Value: math.NaN(), Instret: res.Instret, Injected: res.Injected, Shard: shard,
			RecoveryAttempts: res.RecoveryAttempts, RecoverInstret: res.RecoverInstret}
		tr.DetectLatency, tr.HasLatency = res.DetectLatency()
		if res.Outcome == sim.Detected {
			tr.DetectKind = "unknown"
			if e.DetectClass != nil {
				if k := e.DetectClass(res.DetectPC); k != "" {
					tr.DetectKind = k
				}
			}
		}
		if res.Outcome == sim.OK {
			tr.Masked = bytes.Equal(res.Output, e.Clean.Output)
			if e.Score != nil {
				tr.Value, tr.Acceptable = e.Score(e.Clean.Output, res.Output)
			} else {
				tr.Acceptable = tr.Masked
			}
		}
		countTrial(tr)
		if span != nil && span.EventRoom() > 0 {
			attrs := []obstrace.Attr{
				obstrace.Int("trial", int64(i)),
				obstrace.String("outcome", tr.Outcome.String()),
				obstrace.Int("instret", int64(tr.Instret)),
				obstrace.Int("inject_instret", int64(res.FirstInjectInstret)),
			}
			if tr.DetectKind != "" {
				attrs = append(attrs, obstrace.String("transform", tr.DetectKind))
			}
			span.Event("trial", attrs...)
		}
		trials = append(trials, tr)
	}
	return trials
}

// shardSeed derives a shard's RNG seed from the campaign seed and the
// point's identity via splitmix64 finalization, so streams for different
// (seed, errors, lane, shard) tuples are decorrelated.
func shardSeed(seed int64, errors int, lo, hi uint8, shard int) int64 {
	x := uint64(seed)
	for _, v := range [...]uint64{uint64(errors), uint64(lo)<<8 | uint64(hi), uint64(shard)} {
		x += 0x9e3779b97f4a7c15 + v
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}
