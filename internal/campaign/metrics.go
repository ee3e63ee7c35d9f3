package campaign

import (
	"etap/internal/obs"
	"etap/internal/sim"
)

// Process-wide campaign metrics on the default obs registry. All
// updates happen on worker or collector goroutines through lock-free
// handles resolved here once; nothing reads them back, so shard RNG
// streams, trial ordering and aggregation stay bit-identical with
// metrics enabled or disabled (pinned by TestReportBytesIdentical at
// the repo root).
var (
	campTrials = obs.Default().CounterVec("etap_campaign_trials_total",
		"Fault-injection trials executed, by simulator outcome.",
		"outcome")
	// Index by sim.Outcome so the per-trial hot path is one array load
	// plus one atomic add.
	trialOutcome = [...]*obs.Counter{
		sim.OK:        campTrials.With(sim.OK.String()),
		sim.Crash:     campTrials.With(sim.Crash.String()),
		sim.Timeout:   campTrials.With(sim.Timeout.String()),
		sim.Detected:  campTrials.With(sim.Detected.String()),
		sim.Recovered: campTrials.With(sim.Recovered.String()),
	}

	campPoints = obs.Default().Counter("etap_campaign_points_total",
		"Measurement points (error-count sweeps) started.")
	campTrialsPruned = obs.Default().Counter("etap_campaign_trials_pruned_total",
		"Trials statically classified benign and skipped: their outcome was synthesized from the clean run instead of simulated. Pruned trials still count in etap_campaign_trials_total and every aggregate.")
	campShardSeconds = obs.Default().Histogram("etap_campaign_shard_seconds",
		"Wall-clock seconds of one worker's contiguous run of one shard's trials.",
		obs.ExpBuckets(0.0005, 4, 12))
	campDetectLatency = obs.Default().HistogramVec("etap_campaign_detect_latency_instructions",
		"Retired instructions between the first injected flip and the redundancy check that caught it (Detected trials only), by transform class.",
		obs.ExpBuckets(1, 4, 16), "transform")
	// Pre-resolved latency children, same reasoning as trialOutcome: the
	// per-trial path never pays a label lookup.
	latencyDup     = campDetectLatency.With("dup")
	latencyCFS     = campDetectLatency.With("cfs")
	latencyUnknown = campDetectLatency.With("unknown")

	campRecoverLatency = obs.Default().Histogram("etap_campaign_recover_latency_instructions",
		"Instructions replayed by checkpoint-restore recovery per Recovered trial (the rollback cost of absorbing a detected fault).",
		obs.ExpBuckets(1, 4, 16))
	campRecoveries = obs.Default().Counter("etap_campaign_recoveries_total",
		"Checkpoint restore-replay rounds executed across all trials, whatever the trial's final outcome.")
)

// latencyFor maps a trial's DetectKind to its pre-resolved histogram.
func latencyFor(kind string) *obs.Histogram {
	switch kind {
	case "dup":
		return latencyDup
	case "cfs":
		return latencyCFS
	}
	return latencyUnknown
}

// countTrial folds one executed trial into the process counters.
func countTrial(tr Trial) {
	if int(tr.Outcome) < len(trialOutcome) {
		trialOutcome[tr.Outcome].Inc()
	}
	if tr.HasLatency {
		latencyFor(tr.DetectKind).Observe(float64(tr.DetectLatency))
	}
	if tr.RecoveryAttempts > 0 {
		campRecoveries.Add(float64(tr.RecoveryAttempts))
	}
	if tr.Outcome == sim.Recovered {
		campRecoverLatency.Observe(float64(tr.RecoverInstret))
	}
}
