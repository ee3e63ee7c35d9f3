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
//   - Sharded trial streams: trials are grouped into fixed-size shards,
//     each with its own deterministic RNG stream derived from (seed,
//     point, shard index). Workers pull single trials, and each point's
//     collector folds them back in order, so a campaign's numbers are
//     reproducible for any worker count.
//
//   - Streaming aggregation: outcome counters and fidelity sums update
//     online, with Wilson confidence intervals on the catastrophic-failure
//     rate; a point can stop early, after any whole shard, once its
//     interval is narrower than a target width.
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
	// ShardSize is the number of trials per shard, the unit of RNG
	// streaming and early-stop decisions (a trial is the unit of
	// dispatch). Defaults to 32.
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
	// benign sites (analysis.Classification.Benign), so rec.Marked(o)
	// answers whether eligible-stream ordinal o strikes one at zero extra
	// passes. prune is false when pruning is disabled or the program's
	// CFG defeats classification; pruned counts skipped trials.
	prune  bool
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
	var benign []bool
	if !cfg.DisablePrune {
		if c, err := analysis.Classify(p); err == nil {
			benign = c.Benign
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
		prune:     benign != nil,
	}
	return e, nil
}

// PruningEnabled reports whether static injection pruning is active.
func (e *Engine) PruningEnabled() bool { return e.prune }

// StaticPruneFraction is the fraction of the clean run's eligible
// stream that strikes statically benign sites — the share of the
// single-fault trial space the engine can skip without simulating.
func (e *Engine) StaticPruneFraction() float64 {
	if !e.prune || e.Clean.EligibleExec == 0 {
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
	// Workers sizes the worker pool; 0 means GOMAXPROCS. A sweep runs
	// one pool, sized by the largest Workers of its points. Never affects
	// results.
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
	// Shard is the index of the shard whose RNG stream drew the trial.
	// The trial→shard mapping depends only on the point, never on
	// scheduling.
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

// ForSweep adapts o to a SweepObserver that ignores the point index.
func (o Observer) ForSweep() SweepObserver {
	if o == nil {
		return nil
	}
	return func(_, trial int, tr Trial) { o(trial, tr) }
}

// RunPoint runs pt as a one-point Sweep. Cancelling ctx returns the
// partial aggregate with Cancelled set, also when no trial had finished.
// A cancelled point's numbers are not reproducible; an uncancelled re-run
// is bit-identical to a never-cancelled run at every worker count.
func (e *Engine) RunPoint(ctx context.Context, pt Point, observe Observer) PointResult {
	if rs := e.Sweep(ctx, []Point{pt}, observe.ForSweep()); len(rs) > 0 {
		return rs[0]
	}
	return e.newCollector(0, pt).finish(true)
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

// Sweep runs the points and returns their results in order. A trial is
// the unit of dispatch: one pool of workers (the largest Workers of the
// points, capped at the trial count) takes trials one at a time from a
// dispatcher that walks the points and their shards in order. Each point
// folds its trials in order and may stop early after a whole shard, so
// results and the observer stream are the same at any worker count. After
// a cancel, running trials finish and the list ends at the first point
// cut short, flagged Cancelled, or before it if none of its trials ran.
func (e *Engine) Sweep(ctx context.Context, pts []Point, observe SweepObserver) []PointResult {
	if ctx == nil {
		ctx = context.Background()
	}
	cols := make([]*collector, len(pts))
	workers, trials := 0, 0
	for i, pt := range pts {
		cols[i] = e.newCollector(i, pt)
		workers = max(workers, cols[i].pt.Workers)
		trials += min(cols[i].pt.MaxTrials, math.MaxInt32) // cannot overflow
	}
	// A result slot per worker, so finished trials rarely wait on the collector.
	jobs, results := make(chan job), make(chan job, workers)
	go e.dispatch(ctx, cols, jobs)
	var wg sync.WaitGroup
	wg.Add(min(workers, trials))
	for w := 0; w < min(workers, trials); w++ {
		go e.work(ctx, &wg, jobs, results)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// len(out) is the point being folded; trials of later points wait in
	// their collectors, and late trials of early-stopped points are dropped.
	out := make([]PointResult, 0, len(pts))
	for j := range results {
		if j.c.idx >= len(out) {
			j.c.pending[j.trial] = j.tr
		}
		for len(out) < len(cols) && cols[len(out)].fold(observe) {
			out = append(out, cols[len(out)].finish(false))
		}
	}
	// A point still open was cut short by cancellation and ends the list,
	// unless none of its trials finished; the rest only close their spans.
	for i, c := range cols[len(out):] {
		if r := c.finish(true); i == 0 && r.Trials > 0 {
			out = append(out, r)
		}
	}
	return out
}

// collector is one point of a sweep: its resolved spec, the aggregate
// its trials fold into and the trials that came back ahead of their turn.
type collector struct {
	idx, shardSize int
	pt             Point // lane clamped, defaults resolved
	a              aggregate
	pending        map[int]Trial
	stopped        atomic.Bool // early stop: drop the remaining trials
	// The first shard run opens span. holds counts the jobs in flight,
	// the open shard runs and the unsettled result, each of which holds
	// span. The last release ends it at the end of the last shard run, so
	// the span covers exactly the point's shard spans and still carries
	// the result attributes finish sets.
	open    sync.Once
	ctx     context.Context // carries span
	span    *obstrace.Span
	holds   atomic.Int32
	endMu   sync.Mutex
	lastEnd time.Time // latest shard run end
}

func (e *Engine) newCollector(idx int, pt Point) *collector {
	// Clamp the lane the same way plan generation will, so reported
	// lanes, shard seeds and the actual flips all agree.
	pt.HiBit = min(pt.HiBit, 31)
	pt.LoBit = min(pt.LoBit, pt.HiBit)
	pt.MaxTrials = max(pt.MaxTrials, 1)
	if pt.MinTrials <= 0 {
		pt.MinTrials = min(2*e.shardSize, pt.MaxTrials/2)
	}
	pt.Seed = pt.ScheduleSeed()
	if pt.Workers <= 0 {
		pt.Workers = runtime.GOMAXPROCS(0)
	}
	c := &collector{idx: idx, shardSize: e.shardSize, pt: pt, pending: make(map[int]Trial)}
	c.holds.Store(1) // finish's
	return c
}

// fold adds the point's pending trials in order and reports whether the
// point is complete. Stop decisions fall after whole shards, so they, and
// the trial count, never depend on scheduling.
func (c *collector) fold(observe SweepObserver) bool {
	for c.a.trials < c.pt.MaxTrials {
		tr, ok := c.pending[c.a.trials]
		if !ok {
			return false
		}
		delete(c.pending, c.a.trials)
		c.a.add(tr)
		if observe != nil {
			observe(c.idx, c.a.trials-1, tr)
		}
		if stopsEarly(c.pt, c.shardSize, &c.a) {
			c.stopped.Store(true)
			return true
		}
	}
	return true
}

// stopsEarly is the early-stop rule: with a's trials folded, the point
// stops at a whole shard short of its budget, once past MinTrials, when
// every reported interval is narrower than StopWidth.
func stopsEarly(pt Point, shardSize int, a *aggregate) bool {
	n := a.trials
	return n%shardSize == 0 && n < pt.MaxTrials && pt.StopWidth > 0 &&
		n >= pt.MinTrials && a.ciWidth() < pt.StopWidth
}

// finish settles the point's result. It runs once per collector.
func (c *collector) finish(cancelled bool) PointResult {
	r := c.a.result(c.pt.Errors, c.pt.LoBit, c.pt.HiBit, c.stopped.Load(), cancelled)
	c.span.SetAttr(
		obstrace.Int("trials_run", int64(r.Trials)),
		obstrace.Bool("stopped_early", r.EarlyStopped),
		obstrace.Bool("cancelled", r.Cancelled))
	c.release()
	return r
}

// release drops one hold on the point span; the last ends it.
func (c *collector) release() {
	if c.holds.Add(-1) == 0 {
		c.endMu.Lock()
		end := c.lastEnd
		c.endMu.Unlock()
		c.span.EndAt(end)
	}
}

// ranUntil records that a shard run of the point ended at end.
func (c *collector) ranUntil(end time.Time) {
	c.endMu.Lock()
	if end.After(c.lastEnd) {
		c.lastEnd = end
	}
	c.endMu.Unlock()
}

// job is one trial's round trip: the dispatcher draws plan, a worker sets tr.
type job struct {
	c            *collector
	trial, shard int // trial is the index in the point
	plan         *sim.FaultPlan
	tr           Trial
}

// dispatch draws each shard's plans in order from the shard's own RNG
// stream and hands them out one at a time, skipping the rest of a point
// that stopped early and stopping once ctx is done.
func (e *Engine) dispatch(ctx context.Context, cols []*collector, jobs chan<- job) {
	defer close(jobs)
	for _, c := range cols {
		pt := c.pt
		var rng *rand.Rand
		for t := 0; t < pt.MaxTrials && !c.stopped.Load(); t++ {
			if t%c.shardSize == 0 {
				rng = rand.New(rand.NewSource(shardSeed(pt.Seed, pt.Errors, pt.LoBit, pt.HiBit, t/c.shardSize)))
			}
			plan, err := fault.NewPlanBitsRand(rng, e.Eligible, e.Clean.EligibleExec, pt.Errors, pt.LoBit, pt.HiBit)
			if err != nil {
				panic(err) // unreachable: New rejects empty eligible streams
			}
			c.holds.Add(1)
			select {
			case jobs <- job{c: c, trial: t, shard: t / c.shardSize, plan: plan}:
			case <-ctx.Done():
				c.release()
				return
			}
		}
	}
}

// work runs trials off jobs on one sim.Runner, reusing its machine state
// across trials. It skips every trial once ctx is done, and those of a
// point that stopped early; its collector never folds past the gap.
func (e *Engine) work(ctx context.Context, wg *sync.WaitGroup, jobs <-chan job, results chan<- job) {
	defer wg.Done()
	rn := e.rec.NewRunner()
	defer rn.Close()
	var run shardRun
	for j := range jobs {
		switch {
		case ctx.Err() != nil || j.c.stopped.Load():
			j.c.release()
			continue
		case run.c == j.c && run.shard == j.shard:
			j.c.release() // the open run already holds the span
		default:
			run.end()
			run = openRun(ctx, j) // the job's hold becomes the run's
		}
		j.tr = e.runTrial(rn, run.span, j)
		run.trials++
		results <- j
	}
	run.end()
}

// shardRun is one worker's contiguous run of one shard's trials: one
// campaign.shard span and one etap_campaign_shard_seconds sample. Spans
// stay off the trial path; trials ride as bounded span events.
type shardRun struct {
	c             *collector
	shard, trials int
	span          *obstrace.Span
	start         time.Time
}

// openRun opens a shard span under j's point span, opening that first if
// need be. Spans nest via ctx (HTTP → job → point → shard) and never
// influence scheduling or results (pinned by the root determinism guard).
func openRun(ctx context.Context, j job) shardRun {
	c := j.c
	c.open.Do(func() {
		campPoints.Inc()
		c.ctx, c.span = obstrace.Start(ctx, "campaign.point",
			obstrace.Int("errors", int64(c.pt.Errors)),
			obstrace.Int("max_trials", int64(c.pt.MaxTrials)))
	})
	_, span := obstrace.Start(c.ctx, "campaign.shard", obstrace.Int("shard", int64(j.shard)))
	return shardRun{c: c, shard: j.shard, span: span, start: time.Now()}
}

func (r shardRun) end() {
	if r.c != nil {
		end := time.Now()
		r.span.SetAttr(obstrace.Int("trials", int64(r.trials)))
		r.span.EndAt(end)
		campShardSeconds.Observe(end.Sub(r.start).Seconds())
		r.c.ranUntil(end)
		r.c.release()
	}
}

// runTrial executes one trial on rn and records it as an event on span.
// A trial whose every flip strikes a statically benign site is provably
// the clean run and is synthesized instead (TestPruningDifferential pins
// the bit-identity).
func (e *Engine) runTrial(rn *sim.Runner, span *obstrace.Span, j job) Trial {
	tr := Trial{Outcome: sim.OK, Value: math.NaN(), Instret: e.Clean.Instret, Injected: len(j.plan.Injections), Shard: j.shard}
	out, detail := e.Clean.Output, obstrace.Bool("pruned", true)
	if e.prune && e.planBenign(j.plan) {
		e.pruned.Add(1)
		campTrialsPruned.Inc()
	} else {
		res := rn.RunRecover(e.planIdx(j.plan), j.plan, e.Budget, sim.RecoveryPolicy{MaxAttempts: j.c.pt.MaxRecoveries})
		tr.Outcome, tr.Instret, tr.Injected = res.Outcome, res.Instret, res.Injected
		tr.RecoveryAttempts, tr.RecoverInstret = res.RecoveryAttempts, res.RecoverInstret
		tr.DetectLatency, tr.HasLatency = res.DetectLatency()
		if res.Outcome == sim.Detected && e.DetectClass != nil {
			tr.DetectKind = e.DetectClass(res.DetectPC)
		}
		if res.Outcome == sim.Detected && tr.DetectKind == "" {
			tr.DetectKind = "unknown"
		}
		out, detail = res.Output, obstrace.Int("inject_instret", int64(res.FirstInjectInstret))
	}
	if tr.Outcome == sim.OK {
		tr.Masked = bytes.Equal(out, e.Clean.Output)
		tr.Acceptable = tr.Masked
		if e.Score != nil {
			tr.Value, tr.Acceptable = e.Score(e.Clean.Output, out)
		}
	}
	countTrial(tr)
	if span != nil && span.EventRoom() > 0 {
		attrs := []obstrace.Attr{obstrace.Int("trial", int64(j.trial%j.c.shardSize)),
			obstrace.String("outcome", tr.Outcome.String()), obstrace.Int("instret", int64(tr.Instret)), detail}
		if tr.DetectKind != "" {
			attrs = append(attrs, obstrace.String("transform", tr.DetectKind))
		}
		span.Event("trial", attrs...)
	}
	return tr
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
