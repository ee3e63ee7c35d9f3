package campaign_test

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etap/internal/campaign"
)

// TestSweepWorkersBeyondShards: a trial, not a shard, is the unit of
// dispatch, so a point with a single shard still keeps every worker
// busy. The ScoreFunc admits no trial until all workers are inside it
// at once; a scheduler that hands a whole shard to one worker never gets
// there and runs into the deadline.
func TestSweepWorkersBeyondShards(t *testing.T) {
	const workers = 4
	e, _, _ := buildEngine(t, "adpcm", campaign.Config{ShardSize: 32})
	deadline := time.Now().Add(time.Minute)
	var inside atomic.Int32
	var timedOut atomic.Bool
	together := make(chan struct{})
	var once sync.Once
	e.Score = func(golden, output []byte) (float64, bool) {
		if inside.Add(1) == workers {
			once.Do(func() { close(together) })
		}
		select {
		case <-together:
		case <-time.After(time.Until(deadline)):
			timedOut.Store(true)
		}
		return 1, true
	}
	// Zero-error trials complete (pruned or simulated), so each one
	// reaches Score.
	r := e.RunPoint(ctx, campaign.Point{Errors: 0, HiBit: 31, MaxTrials: 8, Seed: 3, Workers: workers}, nil)
	if timedOut.Load() {
		t.Fatalf("%d workers never scored at the same time on a one-shard point (%d callers arrived)", workers, inside.Load())
	}
	if r.Trials != 8 || r.Accepted != 8 {
		t.Fatalf("one-shard point: %+v", r)
	}
}

// TestSweepAcrossWorkerCounts is the scheduler contract over one sweep of
// mixed points on a dup+cfs engine: an early-stopping point, a recovery
// point, the experiments' shape (40 trials at shard size 32, so one full
// and one partial shard) and a point whose trials are all pruned. Its
// results and its whole observer stream are the same at 1, 2 and 8
// workers, and a cancel inside the second point ends the list there with
// that point flagged.
func TestSweepAcrossWorkerCounts(t *testing.T) {
	e := buildHardened(t, "adpcm", campaign.Config{})
	if !e.PruningEnabled() {
		t.Fatal("pruning disabled; the pruned point would simulate")
	}
	// Kept small: the race detector runs this test too.
	pts := []campaign.Point{
		{Errors: 1, HiBit: 31, MaxTrials: 640, MinTrials: 32, StopWidth: 0.45, Seed: 5},
		{Errors: 1, HiBit: 31, MaxTrials: 12, MaxRecoveries: 3, Seed: 6},
		{Errors: 2, HiBit: 31, MaxTrials: 40, Seed: 7},
		{Errors: 0, HiBit: 31, MaxTrials: 40, Seed: 8},
	}
	type seen struct {
		point, trial int
		tr           campaign.Trial
	}
	run := func(workers, cancelAt int) ([]campaign.PointResult, []seen) {
		var got []seen
		ps := append([]campaign.Point(nil), pts...)
		for i := range ps {
			ps[i].Workers = workers
		}
		if cancelAt >= 0 {
			ps[1].MaxTrials = 1 << 20 // never finishes in the test's lifetime
		}
		cctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		res := e.Sweep(cctx, ps, func(i, trial int, tr campaign.Trial) {
			got = append(got, seen{i, trial, tr})
			if i == 1 && trial == cancelAt {
				cancel()
			}
		})
		return res, got
	}

	var want []campaign.PointResult
	var wantSeen []seen
	for _, workers := range []int{1, 2, 8} {
		got, gotSeen := run(workers, -1)
		if workers == 1 {
			want, wantSeen = got, gotSeen
			if len(want) != len(pts) {
				t.Fatalf("sweep returned %d of %d points", len(want), len(pts))
			}
			if r := want[0]; !r.EarlyStopped || r.Trials >= pts[0].MaxTrials {
				t.Fatalf("point 0 did not stop early: %+v", r)
			}
			if r := want[1]; r.RecoveryAttempts == 0 {
				t.Fatalf("recovery point never rolled back: %+v", r)
			}
			if r := want[3]; r.Masked != r.Trials {
				t.Fatalf("zero-error point not clean: %+v", r)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: sweep returned %d points, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !pointsEqual(want[i], got[i]) {
				t.Fatalf("workers=%d point %d differs from workers=1:\n%+v\n%+v", workers, i, got[i], want[i])
			}
		}
		if len(gotSeen) != len(wantSeen) {
			t.Fatalf("workers=%d: observer saw %d trials, want %d", workers, len(gotSeen), len(wantSeen))
		}
		for k, s := range gotSeen {
			w := wantSeen[k]
			if math.IsNaN(s.tr.Value) && math.IsNaN(w.tr.Value) {
				s.tr.Value, w.tr.Value = 0, 0
			}
			if s != w {
				t.Fatalf("workers=%d: observer call %d was %+v, want %+v", workers, k, gotSeen[k], wantSeen[k])
			}
		}

		partial, _ := run(workers, 3)
		if len(partial) != 2 {
			t.Fatalf("workers=%d: cancelled sweep returned %d points, want 2", workers, len(partial))
		}
		if !pointsEqual(partial[0], want[0]) {
			t.Fatalf("workers=%d: point before the cancel changed: %+v", workers, partial[0])
		}
		if p := partial[1]; !p.Cancelled || p.Trials < 4 {
			t.Fatalf("workers=%d: interrupted point not partial and flagged: %+v", workers, p)
		}
	}
}
