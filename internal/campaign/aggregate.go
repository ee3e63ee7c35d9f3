package campaign

import (
	"math"
	"sort"

	"etap/internal/sim"
)

// aggregate is the online accumulator the collector folds trials into:
// outcome counters, fidelity sums and the Wilson interval inputs. The only
// per-trial data it retains are the detection latencies of Detected trials
// (needed for exact percentiles); everything else aggregates in constant
// space, and unhardened campaigns never detect, so points with millions of
// trials stay cheap.
type aggregate struct {
	trials    int
	crashes   int
	timeouts  int
	detected  int
	recovered int
	degraded  int
	completed int
	masked    int
	accepted  int
	valueN    int
	valueSum  float64
	valueSq   float64
	// recAttempts sums restore-replay rounds over every trial, whatever
	// its final outcome; recLatencies holds per-trial replayed-instruction
	// counts of Recovered trials only, for exact percentiles.
	recAttempts  int
	recLatencies []uint64
	latencies    []uint64
}

func (a *aggregate) add(t Trial) {
	a.trials++
	a.recAttempts += t.RecoveryAttempts
	switch t.Outcome {
	case sim.OK:
		a.completed++
		if t.Masked {
			a.masked++
		}
		if t.Acceptable {
			a.accepted++
		}
		if !math.IsNaN(t.Value) {
			a.valueN++
			a.valueSum += t.Value
			a.valueSq += t.Value * t.Value
		}
		if t.RecoveryAttempts > 0 {
			// Completed after rollback with output still different from
			// golden (an equal output would have classified Recovered):
			// the SDC survived recovery.
			a.degraded++
		}
	case sim.Crash:
		a.crashes++
	case sim.Detected:
		a.detected++
		if t.HasLatency {
			a.latencies = append(a.latencies, t.DetectLatency)
		}
	case sim.Recovered:
		a.recovered++
		a.recLatencies = append(a.recLatencies, t.RecoverInstret)
	default:
		a.timeouts++
	}
}

// failInterval is the Wilson 95% confidence interval (as fractions) on
// the catastrophic-failure rate so far.
func (a *aggregate) failInterval() (lo, hi float64) {
	return wilson(a.crashes+a.timeouts, a.trials, 1.96)
}

// ciWidth is the widest of the reported Wilson intervals — the
// catastrophic-failure rate and the detection rate — so an early stop
// guarantees every interval the point reports meets the target width.
// For unhardened programs detected is always zero and the detection
// interval shrinks deterministically with the trial count, so it only
// mildly delays stopping there.
func (a *aggregate) ciWidth() float64 {
	flo, fhi := a.failInterval()
	dlo, dhi := wilson(a.detected, a.trials, 1.96)
	if d := dhi - dlo; d > fhi-flo {
		return d
	}
	return fhi - flo
}

// PointResult aggregates one measurement point; the public API exports
// it as etap.PointStats. Detected trials are neither completions nor
// catastrophic failures, so FailPct and AcceptPct exclude them by
// construction (both are fractions of all trials). Every *LowPct/*HighPct
// pair is a Wilson 95% interval around the percentage it follows.
type PointResult struct {
	Errors int `json:"errors"`
	// LoBit/HiBit bound the bit positions faults were drawn from.
	LoBit    uint8 `json:"lo_bit"`
	HiBit    uint8 `json:"hi_bit"`
	Trials   int   `json:"trials"`
	Crashes  int   `json:"crashes"`
	Timeouts int   `json:"timeouts"`
	// Detected counts trials a hardened program stopped via trapdet (see
	// internal/harden); always zero without redundancy checks.
	Detected  int `json:"detected"`
	Completed int `json:"completed"`
	// Masked counts completed trials whose output was bit-identical to
	// the fault-free output.
	Masked int `json:"masked"`
	// Accepted counts completed trials that passed the fidelity
	// threshold.
	Accepted int `json:"accepted"`
	// MeanValue and ValueStddev summarize the fidelity value over
	// completed trials (NaN without a scorer or completions).
	MeanValue   float64 `json:"mean_value"`
	ValueStddev float64 `json:"value_stddev"`
	// FailPct is the catastrophic-failure (crash or timeout) rate and
	// AcceptPct the acceptable-completion rate, both over all trials.
	FailPct   float64 `json:"fail_pct"`
	AcceptPct float64 `json:"accept_pct"`
	// DetectPct is the percentage of trials stopped by redundancy checks:
	// over a detection campaign, the realized detection coverage.
	DetectPct     float64 `json:"detect_pct"`
	FailLowPct    float64 `json:"fail_lo_pct"`
	FailHighPct   float64 `json:"fail_hi_pct"`
	DetectLowPct  float64 `json:"detect_lo_pct"`
	DetectHighPct float64 `json:"detect_hi_pct"`
	// DetectLatencyP50/P95 are nearest-rank percentiles of the
	// injection→trapdet distance (retired instructions) over Detected
	// trials; 0 when no trial was detected. The latency window bounds how
	// long a corrupted value was architecturally live before a redundancy
	// check caught it — i.e. the recovery cost of checkpoint rollback.
	DetectLatencyP50 uint64 `json:"detect_latency_p50"`
	DetectLatencyP95 uint64 `json:"detect_latency_p95"`
	// Recovered counts trials that trapped, rolled back to a checkpoint
	// and finally completed with output bit-identical to the golden run
	// (Point.MaxRecoveries > 0; see sim.Recovered). Degraded counts the
	// subset of Completed that finished after one or more replays with
	// output still differing from golden — an SDC that survived rollback.
	// RecoveryAttempts totals restore-replay rounds across every trial of
	// the point, and RecoverLatencyP50/P95 are nearest-rank percentiles,
	// over Recovered trials, of the instructions their replays retired.
	Recovered         int     `json:"recovered"`
	Degraded          int     `json:"degraded"`
	RecoveryAttempts  int     `json:"recovery_attempts"`
	RecoverPct        float64 `json:"recover_pct"`
	RecoverLowPct     float64 `json:"recover_lo_pct"`
	RecoverHighPct    float64 `json:"recover_hi_pct"`
	RecoverLatencyP50 uint64  `json:"recover_latency_p50"`
	RecoverLatencyP95 uint64  `json:"recover_latency_p95"`
	// Availability accounting in the tolerated/detected/untolerated style
	// of freestore's fault-tolerance model: Tolerated counts trials whose
	// work still completed acceptably (threshold-passing completions plus
	// Recovered trials), the Detected counter above covers fail-fast
	// stops that recovery was unable (or not allowed) to absorb, and
	// Untolerated is everything else — crashes, timeouts and unacceptable
	// completions. Tolerated + Detected + Untolerated == Trials, and
	// AvailabilityPct = 100 * Tolerated / Trials with a Wilson 95%
	// interval [AvailabilityLowPct, AvailabilityHighPct].
	Tolerated           int     `json:"tolerated"`
	Untolerated         int     `json:"untolerated"`
	AvailabilityPct     float64 `json:"availability_pct"`
	AvailabilityLowPct  float64 `json:"availability_lo_pct"`
	AvailabilityHighPct float64 `json:"availability_hi_pct"`
	EarlyStopped        bool    `json:"early_stopped"`
	// Cancelled marks a partial aggregate: the point's context was
	// cancelled before the trial budget (or early stop) was reached. A
	// cancelled point's numbers are not reproducible; an uncancelled
	// re-run of the same point is.
	Cancelled bool `json:"cancelled"`
}

func (a *aggregate) result(errors int, lo, hi uint8, stopped, cancelled bool) PointResult {
	r := PointResult{
		Errors:       errors,
		LoBit:        lo,
		HiBit:        hi,
		Trials:       a.trials,
		Crashes:      a.crashes,
		Timeouts:     a.timeouts,
		Detected:     a.detected,
		Completed:    a.completed,
		Masked:       a.masked,
		Accepted:     a.accepted,
		MeanValue:    math.NaN(),
		ValueStddev:  math.NaN(),
		EarlyStopped: stopped,
		Cancelled:    cancelled,
	}
	r.DetectLatencyP50 = percentile(a.latencies, 50)
	r.DetectLatencyP95 = percentile(a.latencies, 95)
	r.Recovered = a.recovered
	r.Degraded = a.degraded
	r.RecoveryAttempts = a.recAttempts
	r.RecoverLatencyP50 = percentile(a.recLatencies, 50)
	r.RecoverLatencyP95 = percentile(a.recLatencies, 95)
	r.Tolerated = a.accepted + a.recovered
	r.Untolerated = a.trials - r.Tolerated - a.detected
	if a.valueN > 0 {
		mean := a.valueSum / float64(a.valueN)
		r.MeanValue = mean
		if a.valueN > 1 {
			varr := (a.valueSq - float64(a.valueN)*mean*mean) / float64(a.valueN-1)
			if varr < 0 {
				varr = 0
			}
			r.ValueStddev = math.Sqrt(varr)
		}
	}
	if a.trials > 0 {
		r.FailPct = 100 * float64(a.crashes+a.timeouts) / float64(a.trials)
		r.AcceptPct = 100 * float64(a.accepted) / float64(a.trials)
		r.DetectPct = 100 * float64(a.detected) / float64(a.trials)
		r.RecoverPct = 100 * float64(a.recovered) / float64(a.trials)
		r.AvailabilityPct = 100 * float64(r.Tolerated) / float64(a.trials)
	}
	flo, fhi := a.failInterval()
	r.FailLowPct, r.FailHighPct = 100*flo, 100*fhi
	dlo, dhi := wilson(a.detected, a.trials, 1.96)
	r.DetectLowPct, r.DetectHighPct = 100*dlo, 100*dhi
	rlo, rhi := wilson(a.recovered, a.trials, 1.96)
	r.RecoverLowPct, r.RecoverHighPct = 100*rlo, 100*rhi
	alo, ahi := wilson(r.Tolerated, a.trials, 1.96)
	r.AvailabilityLowPct, r.AvailabilityHighPct = 100*alo, 100*ahi
	return r
}

// percentile is the nearest-rank p-th percentile of vs; it sorts a copy
// and returns 0 for an empty slice.
func percentile(vs []uint64, p int) uint64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := make([]uint64, len(vs))
	copy(sorted, vs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// wilson returns the Wilson score interval for k successes in n trials at
// critical value z, as fractions in [0,1]. For n == 0 the interval is the
// vacuous [0,1].
func wilson(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	den := 1 + z2/nf
	center := p + z2/(2*nf)
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - half) / den
	hi = (center + half) / den
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
