package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"etap/internal/analysis"
	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/isa"
	"etap/internal/minic"
	obstrace "etap/internal/obs/trace"
	"etap/internal/sim"
)

// batchSpec shapes a campaign workload run in-process.
type batchSpec struct {
	hardened bool  // dup+cfs detection campaigns instead of protected/unprotected
	errors   []int // error counts swept per subject
	repeats  int   // points per subject and error count, each with its own seed
	recovery int   // Point.MaxRecoveries
	// unitSeconds is the reference-host wall time (2 cores) of one trial
	// at every point of a round; trials per point = budget / unitSeconds,
	// so a round takes about the budget there.
	unitSeconds float64
}

// batchSetupReps is how many times an untraced run sets up; setup_s is
// the median.
const batchSetupReps = 3

var campaignSweepSpec = batchSpec{
	errors:      []int{1, 2, 3, 4, 5, 6, 7, 8},
	repeats:     1,
	unitSeconds: 0.85,
}

// hardenRecoverSpec sweeps a single error count, so it runs six seeded
// points per subject: 42 points a round give its latency tail a p75
// with ten samples beyond it, where one point per subject would leave
// only the maximum of seven.
var hardenRecoverSpec = batchSpec{
	hardened:    true,
	errors:      []int{1},
	repeats:     6,
	recovery:    3,
	unitSeconds: 1.0,
}

// trialsPerPoint sizes a round to the time budget: two shards per point,
// so both of a 2-core host's workers are busy on every point. One large
// round, rather than several small ones, keeps each point's trial count
// high: a trial's cost varies with where its fault lands, so small
// points would make every latency percentile depend on the seed.
func (s batchSpec) trialsPerPoint(budget float64) (trials, shardSize int) {
	shardSize = int(math.Round(budget / s.unitSeconds / 2))
	if shardSize < 1 {
		shardSize = 1
	}
	return 2 * shardSize, shardSize
}

// points is the number of RunPoint calls in one round.
func (s batchSpec) points(subjects int) int { return subjects * len(s.errors) * s.repeats }

// subject is one (app, injection mask) pair with its campaign engine.
type subject struct {
	label    string
	input    []byte
	score    campaign.ScoreFunc
	prog     *isa.Program
	mask     []bool
	hard     *harden.Result
	recovery int // Point.MaxRecoveries for this subject's trials
	eng      *campaign.Engine
}

// buildTimes sums wall time (ms) per layer call across subjects.
type buildTimes map[string]float64

// timed runs fn inside a span named after the layer and adds its wall
// time to bt.
func (bt buildTimes) timed(ctx context.Context, layer string, fn func(ctx context.Context)) {
	start := time.Now()
	span(ctx, layer, fn)
	bt[layer] += ms(time.Since(start))
}

// setupSubjects is the workload's set-up: compile and analyze every app
// (and harden and verify it), then build a campaign engine — golden pass
// plus static classification — per subject. It checks each clean output
// against the app's Go reference and each hardened program's verifier.
func setupSubjects(ctx context.Context, spec batchSpec, shardSize int, rep *report) ([]*subject, buildTimes, error) {
	bt := buildTimes{}
	var subs []*subject
	for _, app := range all.Apps() {
		actx, sp := obstrace.Start(ctx, "bench.subject", obstrace.String("app", app.Name()))
		var prog *isa.Program
		var rp *core.Report
		var fresh []*subject
		var err error
		bt.timed(actx, "minic.build", func(context.Context) { prog, err = minic.Build(app.Source()) })
		if err == nil {
			bt.timed(actx, "core.analyze", func(context.Context) { rp, err = core.Analyze(prog, core.PolicyControlAddr) })
		}
		if err != nil {
			sp.End()
			return nil, bt, fmt.Errorf("%s: build: %w", app.Name(), err)
		}
		if spec.hardened {
			var hr *harden.Result
			bt.timed(actx, "harden.harden", func(context.Context) {
				hr, err = harden.Harden(rp, harden.Options{DupCompare: true, Signatures: true})
				if err == nil {
					// The Lab's hardened System re-analyzes the rewrite too.
					_, err = core.Analyze(hr.Prog, core.PolicyControlAddr)
				}
			})
			var v *analysis.Verification
			if err == nil {
				bt.timed(actx, "analysis.verify", func(context.Context) { v, err = analysis.Verify(hr) })
			}
			if err != nil {
				sp.End()
				return nil, bt, fmt.Errorf("%s: harden: %w", app.Name(), err)
			}
			rep.check(v.OK(), "%s: hardened program fails verification: %v", app.Name(), v.Violations)
			fresh = append(fresh, &subject{label: app.Name() + "/hardened", prog: hr.Prog, mask: hr.PrimaryProtected, hard: hr})
		} else {
			fresh = append(fresh,
				&subject{label: app.Name() + "/protected", prog: prog, mask: rp.Tagged},
				&subject{label: app.Name() + "/unprotected", prog: prog, mask: core.EligibleAll(prog)})
		}
		for _, s := range fresh {
			s.input, s.score, s.recovery = app.Input(), apps.Scorer(app), spec.recovery
			bt.timed(actx, "campaign.new", func(context.Context) {
				s.eng, err = campaign.New(s.prog, s.mask, sim.Config{Input: s.input}, campaign.Config{ShardSize: shardSize})
			})
			rep.op(err)
			if err != nil {
				sp.End()
				return nil, bt, fmt.Errorf("%s: campaign set-up: %w", s.label, err)
			}
			s.eng.Score = s.score
			if s.hard != nil {
				hr := s.hard
				s.eng.DetectClass = func(pc int) string { return hr.CheckKindAt(pc).String() }
			}
			rep.check(bytes.Equal(s.eng.Clean.Output, app.Reference()),
				"%s: clean output differs from the Go reference", s.label)
		}
		subs = append(subs, fresh...)
		sp.End()
	}
	return subs, bt, nil
}

// phase is what one timed pass measured over rounds of the same shape
// (same subjects and points, fresh seeds each round).
type phase struct {
	wall        float64
	pointTimes  []float64 // every point of every round
	trials      int
	instr       uint64
	pruned      uint64
	recAttempts int
	digest      string // round 0's outcome counts
	rounds      int
}

// runBatchPhase runs whole rounds — every subject's sweep, subjects in
// order, points in order, fresh seeds per round — while another round
// still fits the budget; a round sized to the budget runs once. Round
// 0's outcome counts form the digest.
func runBatchPhase(ctx context.Context, subs []*subject, spec batchSpec, trials int, budget float64, seed int64, log *spanLog, rep *report) phase {
	var ph phase
	var pruned0 uint64
	for _, s := range subs {
		pruned0 += s.eng.PrunedTrials()
	}
	ph.wall, ph.rounds = rounds(budget, 1, func(round int) {
		dig := newDigester()
		for si, s := range subs {
			jctx, endJob := log.root(ctx, "bench.job", obstrace.String("subject", s.label))
			for _, e := range spec.errors {
				for k := 0; k < spec.repeats; k++ {
					pctx, psp := obstrace.Start(jctx, "bench.point", obstrace.Int("errors", int64(e)))
					pt := campaign.Point{Errors: e, HiBit: 31, MaxTrials: trials, Seed: mix(seed, round, si, e, k), MaxRecoveries: s.recovery}
					start := time.Now()
					r := s.eng.RunPoint(pctx, pt, func(_ int, tr campaign.Trial) { ph.instr += tr.Instret })
					ph.pointTimes = append(ph.pointTimes, time.Since(start).Seconds())
					psp.End()
					ph.trials += r.Trials
					ph.recAttempts += r.RecoveryAttempts
					checkPoint(rep, s.label, pt, r)
					dig.add(s.label, e, k, r.Trials, r.Crashes, r.Timeouts, r.Detected, r.Completed, r.Masked,
						r.Accepted, r.Recovered, r.Degraded, r.RecoveryAttempts, r.Tolerated, r.Untolerated,
						r.DetectLatencyP50, r.DetectLatencyP95, r.RecoverLatencyP50, fmt.Sprintf("%.12g", r.MeanValue))
				}
			}
			endJob()
		}
		if round == 0 {
			ph.digest = dig.sum()
		}
	})
	for _, s := range subs {
		ph.pruned += s.eng.PrunedTrials()
	}
	ph.pruned -= pruned0
	return ph
}

// checkPoint applies the per-point output checks: the requested trial
// count ran, nothing was cut short, and the availability accounting
// partitions the trials.
func checkPoint(rep *report, label string, pt campaign.Point, r campaign.PointResult) {
	rep.op(nil)
	rep.check(r.Trials == pt.MaxTrials, "%s errors=%d: %d trials, want %d", label, pt.Errors, r.Trials, pt.MaxTrials)
	rep.check(!r.Cancelled && !r.EarlyStopped, "%s errors=%d: point cut short", label, pt.Errors)
	rep.check(r.Tolerated+r.Detected+r.Untolerated == r.Trials,
		"%s errors=%d: tolerated %d + detected %d + untolerated %d != trials %d",
		label, pt.Errors, r.Tolerated, r.Detected, r.Untolerated, r.Trials)
}

// phaseMetrics reports a pass's end-to-end figures: work per wall-second
// over the whole timed phase, latency percentiles pooled over its rounds
// at the percentile one round supports. A batch workload has no service
// jobs: its client waits on each RunPoint call, so the job figures are
// the point figures. (A whole subject sweep as the job was tried: its
// 14 samples swung with single timed-out trials, which run 16x a normal
// trial's instructions.)
func phaseMetrics(rep *report, ph phase, points int) {
	note := fmt.Sprintf("%d round(s), %.2f s timed", ph.rounds, ph.wall)
	rep.metric(true, "trials_per_s", float64(ph.trials)/ph.wall, "1/s", fmt.Sprintf("%d trials; %s", ph.trials, note))
	rep.metric(true, "trial_minstr_per_s", float64(ph.instr)/1e6/ph.wall, "Minstr/s", "simulated instructions per host second")
	latencyMetrics(rep, "point_latency", ph.pointTimes, points, "points")
	latencyMetrics(rep, "job_latency", ph.pointTimes, points, "points (a batch job is one RunPoint call)")
	rep.metric(true, "jobs_per_s", float64(len(ph.pointTimes))/ph.wall, "1/s", fmt.Sprintf("%d RunPoint calls", len(ph.pointTimes)))
	rep.metric(true, "peak_rss_mb", peakRSSMB(), "MB", rssNote)
}

func runCampaignSweep(ctx context.Context, o options, rep *report) error {
	return runBatch(ctx, o, rep, campaignSweepSpec)
}

func runHardenRecover(ctx context.Context, o options, rep *report) error {
	return runBatch(ctx, o, rep, hardenRecoverSpec)
}

// runBatch runs either of the two in-process campaign
// workloads. Untraced: set up batchSetupReps times (median is setup_s),
// then the timed round. Traced: one traced set-up, then untraced, traced
// and untraced rounds over the same seeds (their digests must match;
// their times give the tracing overhead), then the layer drives.
func runBatch(ctx context.Context, o options, rep *report, spec batchSpec) error {
	// The traced run measures three rounds (untraced, traced, untraced),
	// each half the size of the untraced run's one.
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	trials, shardSize := spec.trialsPerPoint(budget)
	var log *spanLog
	reps := batchSetupReps
	if o.trace {
		log = newSpanLog()
		reps = 1
	}
	var subs []*subject
	var bt buildTimes
	var setups []float64
	for i := 0; i < reps; i++ {
		subs = nil
		runtime.GC()
		sctx, end := log.root(ctx, "bench.setup")
		start := time.Now()
		var err error
		subs, bt, err = setupSubjects(sctx, spec, shardSize, rep)
		setups = append(setups, time.Since(start).Seconds())
		end()
		if err != nil {
			return err
		}
	}
	rep.metric(true, "setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups of %d subjects", len(setups), len(subs)))
	points := spec.points(len(subs))
	fmt.Fprintf(os.Stderr, "   %d trials per point, shard size %d, %d points per round\n", trials, shardSize, points)

	if !o.trace {
		ph := runBatchPhase(ctx, subs, spec, trials, o.seconds, o.seed, nil, rep)
		rep.digest = ph.digest
		phaseMetrics(rep, ph, points)
		return nil
	}

	// Untraced, traced, untraced: one identical round each, so a linear
	// drift in host speed cancels out of the overhead.
	before := runBatchPhase(ctx, subs, spec, trials, 0, o.seed, nil, rep)
	traced := runBatchPhase(ctx, subs, spec, trials, 0, o.seed, log, rep)
	after := runBatchPhase(ctx, subs, spec, trials, 0, o.seed, nil, rep)
	rep.digest = traced.digest
	rep.check(before.digest == traced.digest && after.digest == traced.digest,
		"tracing changed results: digest %s traced vs %s, %s untraced", traced.digest, before.digest, after.digest)
	rep.metric(false, "obs.trace_overhead_frac", traceOverhead(before.wall, traced.wall, after.wall), "fraction", traceOverheadNote)
	rep.metric(false, "campaign.pruned_frac", float64(traced.pruned)/float64(traced.trials), "fraction",
		fmt.Sprintf("%d of %d trials answered statically", traced.pruned, traced.trials))
	rep.metric(false, "sim.recovery_attempts_per_trial", float64(traced.recAttempts)/float64(traced.trials), "count",
		"restore-replay rounds per trial in the timed phase")
	shardMetrics(rep, log, runtime.GOMAXPROCS(0))

	d := newDrive(o.seed)
	d.subjects(subs, spec.errors)
	layers := []string{"minic.build", "core.analyze"}
	if spec.hardened {
		layers = append(layers, "harden.harden", "analysis.verify")
	} else {
		rep.notExercised("ms", "harden.harden_ms", "analysis.verify_ms")
	}
	for _, name := range layers {
		rep.metric(false, name+"_ms", bt[name], "ms", "summed over subjects")
	}
	d.report(rep)
	// A batch workload runs no server and no Lab.
	rep.notExercised("ms", "server.submit_ms", "server.queue_wait_ms", "server.job_run_ms",
		"server.sse_delivery_ms", "server.report_fetch_ms")
	rep.notExercised("count", "etap.lab_builds", "etap.lab_hits")
	return log.write(os.Stderr, o.outDir, rep.workload, o.seed)
}

// shardMetrics reports shard wall-time percentiles and worker idle share
// from the campaign.shard and campaign.point spans.
func shardMetrics(rep *report, log *spanLog, workers int) {
	shards := log.durations("campaign.shard")
	p := tailPercentile(len(shards))
	rep.metric(false, "campaign.shard_ms_p50", median(shards), "ms", fmt.Sprintf("p50 of n=%d", len(shards)))
	rep.metric(false, "campaign.shard_ms_tail", percentile(shards, p), "ms", fmt.Sprintf("p%g of n=%d", p, len(shards)))
	rep.metric(false, "campaign.worker_idle_frac", log.workerIdle(workers), "fraction",
		fmt.Sprintf("point wall x %d workers minus shard time", workers))
}
