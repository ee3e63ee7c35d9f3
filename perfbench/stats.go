package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile is the nearest-rank p-th percentile of vs (p in (0, 100]).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// tailLadder are the percentiles a tail latency may be reported at.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile with at least ten
// samples beyond it among n samples, or 100 (the maximum) when n is too
// small for any. Workloads pass the sample count a minimal run
// guarantees, so the percentile is fixed per workload and comparable
// across commits.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 100
}

// latencyMetrics records a p50 and a tail metric over samples (seconds).
// The tail percentile is fixed per workload by basis, the sample count a
// minimal run is guaranteed, so it does not move with the run's length.
func latencyMetrics(rep *report, prefix string, samples []float64, basis int, units string) {
	p := tailPercentile(basis)
	note := fmt.Sprintf("p%g of n=%d %s", p, len(samples), units)
	if p == 100 {
		note = fmt.Sprintf("max of n=%d %s (under 20: no percentile has ten beyond it)", len(samples), units)
	}
	rep.metric(true, prefix+"_p50_s", median(samples), "s", fmt.Sprintf("p50 of n=%d %s", len(samples), units))
	rep.metric(true, prefix+"_tail_s", percentile(samples, p), "s", note)
}

// digester folds outcome counts into a results digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) add(parts ...any) {
	fmt.Fprintln(d.h, parts...)
}

func (d *digester) sum() string { return "sha256:" + hex.EncodeToString(d.h.Sum(nil))[:16] }

// mix derives a decorrelated seed from the workload seed and a path of
// indices (splitmix64 finalization per step).
func mix(seed int64, path ...int) int64 {
	x := uint64(seed)
	for _, v := range path {
		x += 0x9e3779b97f4a7c15 + uint64(v)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	s := int64(x &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// peakRSSMB is the process's resident-set high-water mark in MiB. It
// covers the whole run, set-up included, so memory moved into set-up
// shows as well as memory the timed phase adds.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssNote describes peak_rss_mb.
const rssNote = "resident-set high-water mark of the whole run (getrusage maxrss)"

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rounds runs round(i) until the budget is spent, and at least min
// times: another round starts only while the mean round so far still
// fits in the budget.
func rounds(budget float64, min int, round func(i int)) (wall float64, n int) {
	for {
		start := time.Now()
		round(n)
		wall += time.Since(start).Seconds()
		n++
		if n >= min && wall+wall/float64(n) > budget {
			return wall, n
		}
	}
}

// traceOverheadNote describes obs.trace_overhead_frac.
const traceOverheadNote = "1 - traced/untraced throughput; untraced is the mean of the rounds before and after"

// traceOverhead is the throughput lost to tracing over identical rounds
// timed untraced, traced, untraced.
func traceOverhead(before, traced, after float64) float64 {
	return 1 - (before+after)/2/traced
}
