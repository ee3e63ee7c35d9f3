package campaign

import (
	"math"
	"testing"
)

// TestWilsonCoverage checks the Wilson 95% interval against ground
// truth rather than against itself: for a binomial stream with known p,
// the exact probability that wilson(k, n) contains p sums the binomial
// pmf over every k whose interval does. Wilson coverage oscillates with
// n and p but stays near nominal; a wrong z or a narrowed half-width
// pulls cells below 0.92 or the mean out of band.
func TestWilsonCoverage(t *testing.T) {
	ns := []int{16, 32, 64, 256, 1024}
	ps := []float64{0.02, 0.05, 0.1, 0.3, 0.5, 0.9}
	var sum float64
	for _, n := range ns {
		for _, p := range ps {
			cov := 0.0
			for k := 0; k <= n; k++ {
				if lo, hi := wilson(k, n, 1.96); lo <= p && p <= hi {
					cov += binomPMF(k, n, p)
				}
			}
			if cov < 0.92 {
				t.Errorf("n=%d p=%v: coverage %.4f < 0.92", n, p, cov)
			}
			sum += cov
		}
	}
	if mean := sum / float64(len(ns)*len(ps)); mean < 0.94 || mean > 0.97 {
		t.Errorf("mean coverage %.4f outside [0.94, 0.97]", mean)
	}
}

// binomPMF is P(K = k) for K ~ Binomial(n, p), computed in log space so
// n = 1024 neither overflows nor underflows to a wrong sum.
func binomPMF(k, n int, p float64) float64 {
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	return math.Exp(lg(n) - lg(k) - lg(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// TestEarlyStopCoverage checks the early-stop rule against ground truth:
// a point looks at its interval after every shard, so the interval it
// finally reports could cover p less often than a fixed-n one. For a
// Bernoulli failure stream with known p (no detections, as in an
// unhardened campaign), the exact coverage propagates the binomial
// distribution of failures trial by trial, removes the mass of every
// (trials, failures) state at which stopsEarly fires, and sums the
// stopped and budget-exhausted mass whose Wilson interval contains p.
// The floors are TestWilsonCoverage's.
func TestEarlyStopCoverage(t *testing.T) {
	const shard = 32
	ps := []float64{0.02, 0.05, 0.1, 0.3, 0.5, 0.9}
	widths := []float64{0.05, 0.1, 0.2}
	budgets := []int{128, 400, 1024}
	var sum float64
	for _, maxTrials := range budgets {
		for _, width := range widths {
			pt := Point{MaxTrials: maxTrials, MinTrials: 64, StopWidth: width}
			for _, p := range ps {
				cov, stopped := 0.0, 0.0
				mass := []float64{1} // mass[k] = P(k failures in n trials, still running)
				for n := 1; n <= maxTrials; n++ {
					next := make([]float64, n+1)
					for k, m := range mass {
						next[k] += m * (1 - p)
						next[k+1] += m * p
					}
					mass = next
					for k, m := range mass {
						if m == 0 {
							continue
						}
						a := &aggregate{trials: n, crashes: k}
						if n < maxTrials && !stopsEarly(pt, shard, a) {
							continue
						}
						if lo, hi := a.failInterval(); lo <= p && p <= hi {
							cov += m
						}
						if n < maxTrials {
							stopped += m
						}
						mass[k] = 0
					}
				}
				if cov < 0.92 {
					t.Errorf("max=%d width=%v p=%v: coverage %.4f < 0.92 (%.2f stopped early)", maxTrials, width, p, cov, stopped)
				}
				sum += cov
			}
		}
	}
	if mean := sum / float64(len(budgets)*len(widths)*len(ps)); mean < 0.94 || mean > 0.97 {
		t.Errorf("mean coverage %.4f outside [0.94, 0.97]", mean)
	}
}
