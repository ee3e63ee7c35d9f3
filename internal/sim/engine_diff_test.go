package sim_test

// The application-level differential harness for the predecoded engine:
// every benchmark application — original and hardened — must produce
// bit-identical sim.Results on the engine and on the reference
// interpreter, clean and under injection plans spread across the eligible
// stream. This is the acceptance gate that lets the engine be the only
// production interpreter (docs/PERF.md).

import (
	"reflect"
	"testing"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/isa"
	"etap/internal/minic"
	"etap/internal/sim"
)

// buildApp compiles an application and analyzes it under the
// experiments' default policy.
func buildApp(t testing.TB, app apps.App) *core.Report {
	t.Helper()
	prog, err := minic.Build(app.Source())
	if err != nil {
		t.Fatalf("%s: build: %v", app.Name(), err)
	}
	rep, err := core.Analyze(prog, core.PolicyControlAddr)
	if err != nil {
		t.Fatalf("%s: analyze: %v", app.Name(), err)
	}
	return rep
}

// hardenApp is buildApp plus the default dup+cfs hardening rewrite.
func hardenApp(t testing.TB, app apps.App) *harden.Result {
	t.Helper()
	res, err := harden.Harden(buildApp(t, app), harden.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: harden: %v", app.Name(), err)
	}
	return res
}

// diffApp runs prog under cfg on both engines and requires equal Results.
func diffApp(t *testing.T, name string, prog *isa.Program, cfg sim.Config) sim.Result {
	t.Helper()
	got := sim.Run(prog, cfg)
	want := sim.ReferenceRun(prog, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: engine diverges from reference:\nengine:    %+v\nreference: %+v", name, got, want)
	}
	return got
}

// injectionOrdinals picks first, interior and last positions of an
// eligible stream of length n.
func injectionOrdinals(n uint64) []uint64 {
	ats := []uint64{1, n / 3, n / 2, n}
	out := ats[:0]
	for _, at := range ats {
		if at >= 1 && at <= n {
			out = append(out, at)
		}
	}
	return out
}

func TestEngineMatchesReferenceOnApps(t *testing.T) {
	appsList := all.Apps()
	if testing.Short() {
		appsList = appsList[:2]
	}
	for _, app := range appsList {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			t.Parallel()
			rep := buildApp(t, app)
			prog := rep.Prog
			input := app.Input()

			clean := diffApp(t, "clean", prog, sim.Config{Input: input})
			if clean.Outcome != sim.OK {
				t.Fatalf("clean run: %s (trap %s)", clean.Outcome, clean.Trap)
			}
			budget := clean.Instret * 2

			// Injections under the protected mask (tagged low-reliability
			// instructions) and the unprotected everything-mask.
			masks := map[string][]bool{
				"tagged": rep.Tagged,
				"all":    core.EligibleAll(prog),
			}
			for maskName, mask := range masks {
				probe := diffApp(t, maskName+"/probe", prog,
					sim.Config{Input: input, Plan: &sim.FaultPlan{Eligible: mask}})
				if probe.EligibleExec == 0 {
					t.Fatalf("mask %s: no eligible executions", maskName)
				}
				for _, at := range injectionOrdinals(probe.EligibleExec) {
					for _, bit := range []uint8{0, 31} {
						plan := &sim.FaultPlan{
							Eligible:   mask,
							Injections: []sim.Injection{{At: at, Bit: bit}},
						}
						diffApp(t, maskName+"/injected", prog,
							sim.Config{Input: input, Plan: plan, MaxInstr: budget})
					}
				}
			}
		})
	}
}

func TestEngineMatchesReferenceOnHardenedApps(t *testing.T) {
	if testing.Short() {
		t.Skip("hardened differential sweep skipped in -short")
	}
	for _, app := range all.Apps() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			t.Parallel()
			prog := hardenApp(t, app).Prog
			input := app.Input()
			clean := diffApp(t, "clean", prog, sim.Config{Input: input})
			if clean.Outcome != sim.OK {
				t.Fatalf("hardened clean run: %s (trap %s)", clean.Outcome, clean.Trap)
			}

			// Unprotected mask over the hardened program: flips can land in
			// the duplicated slice, so some trials end Detected — both
			// engines must agree on the detection point too.
			mask := core.EligibleAll(prog)
			probe := diffApp(t, "probe", prog,
				sim.Config{Input: input, Plan: &sim.FaultPlan{Eligible: mask}})
			detected := 0
			for _, at := range injectionOrdinals(probe.EligibleExec) {
				for _, bit := range []uint8{0, 31} {
					plan := &sim.FaultPlan{
						Eligible:   mask,
						Injections: []sim.Injection{{At: at, Bit: bit}},
					}
					res := diffApp(t, "injected", prog,
						sim.Config{Input: input, Plan: plan, MaxInstr: clean.Instret * 2})
					if res.Outcome == sim.Detected {
						detected++
					}
				}
			}
			t.Logf("%s hardened: %d/%d injected trials detected", app.Name(), detected,
				len(injectionOrdinals(probe.EligibleExec))*2)
		})
	}
}

// BenchmarkEngineScratch compares the predecoded engine against the
// reference interpreter on identical from-scratch runs and reports raw
// ns/instruction for each — the engine's headline per-step cost
// (docs/PERF.md tracks this number across revisions).
func BenchmarkEngineScratch(b *testing.B) {
	a, _ := all.ByName("blowfish")
	prog := buildApp(b, a).Prog
	input := a.Input()
	run := func(b *testing.B, exec func(*isa.Program, sim.Config) sim.Result) {
		b.Helper()
		var instret uint64
		for i := 0; i < b.N; i++ {
			res := exec(prog, sim.Config{Input: input})
			if res.Outcome != sim.OK {
				b.Fatalf("outcome %s", res.Outcome)
			}
			instret += res.Instret
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(instret), "ns/instruction")
	}
	b.Run("engine", func(b *testing.B) { run(b, sim.Run) })
	b.Run("reference", func(b *testing.B) { run(b, sim.ReferenceRun) })
}
