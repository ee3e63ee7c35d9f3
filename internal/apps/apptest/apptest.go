// Package apptest provides shared test support for the benchmark
// applications: it builds an app's MiniC source, runs it cleanly on the
// simulator, and checks the output against the app's pure-Go reference.
// This differential check pins the whole pipeline — compiler, assembler,
// simulator, and the app implementation pair — in one assertion.
package apptest

import (
	"bytes"
	"testing"

	"etap/internal/apps"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/isa"
	"etap/internal/minic"
	"etap/internal/sim"
)

// Build compiles the app's source, failing the test on any error.
func Build(t *testing.T, app apps.App) *isa.Program {
	t.Helper()
	prog, err := minic.Build(app.Source())
	if err != nil {
		t.Fatalf("%s: compile: %v", app.Name(), err)
	}
	return prog
}

// RunClean executes the app without faults and returns the output.
func RunClean(t *testing.T, app apps.App) ([]byte, sim.Result) {
	t.Helper()
	prog := Build(t, app)
	res := sim.Run(prog, sim.Config{Input: app.Input(), MaxInstr: 1 << 31})
	if res.Outcome != sim.OK {
		t.Fatalf("%s: clean run ended with %s (trap: %s)", app.Name(), res.Outcome, res.Trap)
	}
	return res.Output, res
}

// CheckReference asserts the simulated clean output equals the Go
// reference implementation's output byte for byte, and that it scores as
// perfectly acceptable fidelity against itself.
func CheckReference(t *testing.T, app apps.App) {
	t.Helper()
	got, _ := RunClean(t, app)
	want := app.Reference()
	if !bytes.Equal(got, want) {
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		diff := -1
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				diff = i
				break
			}
		}
		t.Fatalf("%s: simulated output (len %d) != reference (len %d); first diff at byte %d",
			app.Name(), len(got), len(want), diff)
	}
	if s := app.Score(want, got); !s.Acceptable {
		t.Fatalf("%s: clean output scores unacceptable fidelity %v", app.Name(), s.Value)
	}
}

// CheckProtectedTolerance runs `trials` protected injections with the
// paper's error count and asserts that at most maxFailures end
// catastrophically and that every completed run scores a fidelity value
// in range. This is each application's Table 2 protected column, asserted
// as a regression test.
func CheckProtectedTolerance(t *testing.T, app apps.App, errors, trials, maxFailures int) {
	t.Helper()
	sub, err := campaign.Analyze(Build(t, app), core.PolicyControlAddr)
	if err != nil {
		t.Fatalf("%s: analyze: %v", app.Name(), err)
	}
	c, err := sub.Engine(campaign.Protected, app.Input(), nil, campaign.Config{})
	if err != nil {
		t.Fatalf("%s: campaign: %v", app.Name(), err)
	}
	golden := c.Clean.Output
	failures := 0
	for seed := int64(1); seed <= int64(trials); seed++ {
		res := c.Run(errors, seed*131)
		if res.Outcome != sim.OK {
			failures++
			continue
		}
		s := app.Score(golden, res.Output)
		if s.Value < 0 || s.Value > 1e6 {
			t.Fatalf("%s: seed %d: fidelity value %v out of range", app.Name(), seed, s.Value)
		}
	}
	if failures > maxFailures {
		t.Fatalf("%s: %d/%d protected runs failed at %d errors (allowed %d)",
			app.Name(), failures, trials, errors, maxFailures)
	}
}
