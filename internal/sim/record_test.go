package sim_test

// Oracles for the golden pass: Record runs on the engine in
// checkpoint-bounded segments, and every checkpoint it keeps must be the
// state the reference interpreter reaches at the same retirement count;
// the marked-ordinal answers must match a reference-side walk of the
// eligible stream.

import (
	"reflect"
	"testing"

	"etap/internal/analysis"
	"etap/internal/apps/all"
	"etap/internal/asm"
	"etap/internal/isa"
	"etap/internal/sim"
)

// TestRecordMatchesReference: for each app and each checkpoint, running
// the reference to a budget of the checkpoint's Instret leaves registers,
// PC, counters, class counts, input cursor, output and every page equal
// to the checkpoint. Small intervals keep many checkpoints, thinning
// included, per app.
func TestRecordMatchesReference(t *testing.T) {
	appsList := all.Apps()
	if testing.Short() {
		appsList = appsList[:2]
	}
	for _, app := range appsList {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			t.Parallel()
			rep := buildApp(t, app)
			cfg := sim.Config{Input: app.Input(), Plan: &sim.FaultPlan{Eligible: rep.Tagged}}
			rec, err := sim.Record(rep.Prog, cfg, sim.RecordOptions{Interval: 4096, MaxSnapshots: 16})
			if err != nil {
				t.Fatal(err)
			}
			if want := sim.ReferenceRun(rep.Prog, cfg); !reflect.DeepEqual(rec.Result, want) {
				t.Fatalf("golden result diverges from reference:\nrecord:    %+v\nreference: %+v", rec.Result, want)
			}
			snaps := rec.Snapshots()
			if len(snaps) < 8 {
				t.Fatalf("only %d checkpoints", len(snaps))
			}
			stops := make([]uint64, len(snaps))
			for i, s := range snaps {
				stops[i] = s.Instret
			}
			reached := sim.ReferenceStates(rep.Prog, cfg, stops, func(i int, ref sim.State) {
				if got := rec.SnapshotState(i); !reflect.DeepEqual(got, ref) {
					t.Errorf("checkpoint %d (instret %d) differs from the reference state", i, stops[i])
				}
			})
			if reached != len(stops) {
				t.Fatalf("reference ended after %d of %d checkpoints", reached, len(stops))
			}
		})
	}
}

// checkMarks requires rec.Marked to answer, for every eligible ordinal of
// the stream the reference walks, whether that ordinal's site is marked.
func checkMarks(t *testing.T, p *isa.Program, cfg sim.Config, rec *sim.Recording, mark []bool) {
	t.Helper()
	sites := sim.ReferenceSites(p, cfg)
	if uint64(len(sites)) != rec.Result.EligibleExec {
		t.Fatalf("reference walked %d eligible executions, golden pass counted %d", len(sites), rec.Result.EligibleExec)
	}
	var marked uint64
	for i, pc := range sites {
		o := uint64(i + 1)
		if rec.Marked(o) != mark[pc] {
			t.Fatalf("ordinal %d (pc %d): Marked = %v, mask says %v", o, pc, rec.Marked(o), mark[pc])
		}
		if mark[pc] {
			marked++
		}
	}
	if rec.MarkedExec() != marked {
		t.Fatalf("MarkedExec = %d, reference walk counts %d", rec.MarkedExec(), marked)
	}
	if rec.Marked(0) || rec.Marked(uint64(len(sites))+1) {
		t.Fatal("ordinals outside the eligible stream report marked")
	}
}

// TestRecordMarksMatchReference covers a hand-written loop with every
// other eligible site marked, and every app with its statically benign
// sites marked — the campaign engine's pruning input.
func TestRecordMarksMatchReference(t *testing.T) {
	p, err := asm.Assemble(`
.text
.func __start
	li $t5, 0
	li $t6, 0
loop:
	add $t6, $t6, $t5
	addi $t5, $t5, 1
	slti $at, $t5, 100
	bnez $at, loop
	move $a0, $t6
	li $v0, 1
	syscall
.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	elig := make([]bool, len(p.Text))
	mark := make([]bool, len(p.Text))
	for i, in := range p.Text {
		elig[i] = in.IsInjectable()
		mark[i] = i%2 == 0
	}
	cfg := sim.Config{Plan: &sim.FaultPlan{Eligible: elig}}
	rec, err := sim.Record(p, cfg, sim.RecordOptions{Interval: 16}, mark...)
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := sim.Record(p, cfg, sim.RecordOptions{Interval: 16}); err != nil ||
		!reflect.DeepEqual(plain.Result, rec.Result) || plain.MarkedExec() != 0 {
		t.Fatalf("marking perturbed the golden pass (err %v)", err)
	}
	checkMarks(t, p, cfg, rec, mark)

	appsList := all.Apps()
	if testing.Short() {
		appsList = appsList[:2]
	}
	for _, app := range appsList {
		rep := buildApp(t, app)
		cls, err := analysis.Classify(rep.Prog)
		if err != nil {
			t.Fatalf("%s: classify: %v", app.Name(), err)
		}
		cfg := sim.Config{Input: app.Input(), Plan: &sim.FaultPlan{Eligible: rep.Tagged}}
		rec, err := sim.Record(rep.Prog, cfg, sim.RecordOptions{}, cls.Benign...)
		if err != nil {
			t.Fatal(err)
		}
		if rec.MarkedExec() == 0 {
			t.Fatalf("%s: no benign executions marked", app.Name())
		}
		checkMarks(t, rep.Prog, cfg, rec, cls.Benign)
	}
}
