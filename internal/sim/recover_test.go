package sim_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"etap/internal/apps/all"
	"etap/internal/asm"
	"etap/internal/fault"
	"etap/internal/isa"
	"etap/internal/sim"
)

// detectProgram is a hand-hardened loop in the internal/harden style: the
// eligible primary addi has a shadow copy, and a primary/shadow mismatch
// executes trapdet. Flipping any bit of the primary's destination is
// therefore detected one instruction later, which makes the program a
// minimal detect→recover subject.
const detectProgram = `
.text
.func __start
	li $t0, 0
	li $t1, 0
loop:
	addi $t2, $t0, 3
	addi $t3, $t0, 3
	bne $t2, $t3, detect
	add $t1, $t1, $t2
	addi $t0, $t0, 1
	slti $at, $t0, 300
	bnez $at, loop
	addi $sp, $sp, -4
	sw $t1, 0($sp)
	move $a0, $sp
	li $a1, 4
	li $v0, 4
	syscall
	li $a0, 0
	li $v0, 1
	syscall
detect:
	trapdet
.endfunc
`

// recordDetect records a golden pass of detectProgram with only the
// primary addi (the first of the duplicated pair) eligible, so each loop
// iteration contributes exactly one eligible-stream ordinal.
func recordDetect(t *testing.T) (*sim.Recording, *sim.FaultPlan) {
	t.Helper()
	p, err := asm.Assemble(detectProgram)
	if err != nil {
		t.Fatal(err)
	}
	elig := make([]bool, len(p.Text))
	primary := -1
	for i, in := range p.Text {
		if in.Op == isa.ADDI && in.Imm == 3 {
			primary = i
			break
		}
	}
	if primary < 0 {
		t.Fatal("primary addi not found")
	}
	elig[primary] = true
	rec, err := sim.Record(p, sim.Config{Plan: &sim.FaultPlan{Eligible: elig}}, sim.RecordOptions{Interval: 128})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.Outcome != sim.OK {
		t.Fatalf("golden outcome %s", rec.Result.Outcome)
	}
	if rec.Result.EligibleExec != 300 {
		t.Fatalf("eligible stream length %d, want 300", rec.Result.EligibleExec)
	}
	if len(rec.Snapshots()) < 4 {
		t.Fatalf("only %d snapshots; the recovery tests need mid-run checkpoints", len(rec.Snapshots()))
	}
	return rec, &sim.FaultPlan{Eligible: elig}
}

func TestRunRecoverRestoresGoldenOutput(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 150, Bit: 5}}}
	idx := rec.ResumeIdx(plan, 0)

	detected := rec.RunFrom(idx, plan, 0)
	if detected.Outcome != sim.Detected {
		t.Fatalf("trial without recovery: outcome %s, want detected", detected.Outcome)
	}

	// Policy disabled: bit-identical to plain RunFrom, zero recovery work.
	off := rec.RunRecover(idx, plan, 0, sim.RecoveryPolicy{})
	if !resultsEqual(off, detected) || off.RecoveryAttempts != 0 || off.RecoverInstret != 0 {
		t.Fatalf("disabled recovery diverged from RunFrom:\nRunFrom:    %+v\nRunRecover: %+v", headline(detected), headline(off))
	}

	res := rec.RunRecover(idx, plan, 0, sim.RecoveryPolicy{MaxAttempts: 3})
	if res.Outcome != sim.Recovered {
		t.Fatalf("outcome %s, want recovered", res.Outcome)
	}
	if !bytes.Equal(res.Output, rec.Result.Output) {
		t.Fatalf("recovered output differs from golden: %q vs %q", res.Output, rec.Result.Output)
	}
	if res.RecoveryAttempts != 1 {
		t.Fatalf("recovery attempts %d, want 1", res.RecoveryAttempts)
	}
	if res.RecoverInstret == 0 {
		t.Fatal("recovered trial reports zero replayed instructions")
	}
	if res.Injected != 1 {
		t.Fatalf("injected %d, want 1", res.Injected)
	}
	if res.FirstInjectInstret != detected.FirstInjectInstret {
		t.Fatalf("first-injection instret changed across recovery: %d vs %d",
			res.FirstInjectInstret, detected.FirstInjectInstret)
	}
}

func TestRunRecoverReplaysRemainingInjections(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 100, Bit: 2}, {At: 200, Bit: 9}}}
	idx := rec.ResumeIdx(plan, 0)

	res := rec.RunRecover(idx, plan, 0, sim.RecoveryPolicy{MaxAttempts: 3})
	if res.Outcome != sim.Recovered {
		t.Fatalf("outcome %s, want recovered", res.Outcome)
	}
	// Both flips must have fired (each replay resumes before the next
	// remaining ordinal) and each detection consumed one attempt.
	if res.Injected != 2 {
		t.Fatalf("injected %d, want 2: a replay skipped or re-fired an injection", res.Injected)
	}
	if res.RecoveryAttempts != 2 {
		t.Fatalf("recovery attempts %d, want 2", res.RecoveryAttempts)
	}
	if !bytes.Equal(res.Output, rec.Result.Output) {
		t.Fatal("recovered output differs from golden")
	}
}

func TestRunRecoverAttemptsExhausted(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 100, Bit: 2}, {At: 200, Bit: 9}}}
	idx := rec.ResumeIdx(plan, 0)

	res := rec.RunRecover(idx, plan, 0, sim.RecoveryPolicy{MaxAttempts: 1})
	if res.Outcome != sim.Detected {
		t.Fatalf("outcome %s, want detected after exhausting one attempt", res.Outcome)
	}
	if res.RecoveryAttempts != 1 {
		t.Fatalf("recovery attempts %d, want 1", res.RecoveryAttempts)
	}
	if res.Injected != 2 {
		t.Fatalf("injected %d, want 2: the single replay should reach the second flip", res.Injected)
	}
	if res.DetectInstret == 0 || res.DetectPC < 0 {
		t.Fatal("exhausted recovery lost the last detection's location")
	}
}

func TestRunRecoverBudgetAccounting(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 150, Bit: 5}}}
	detected := rec.RunFrom(-1, plan, 0)
	if detected.Outcome != sim.Detected {
		t.Fatalf("outcome %s, want detected", detected.Outcome)
	}

	// Budget exactly the detection cost: no instructions remain for a
	// replay, so the trial stays Detected without consuming an attempt.
	res := rec.RunRecover(-1, plan, detected.Instret, sim.RecoveryPolicy{MaxAttempts: 3})
	if res.Outcome != sim.Detected || res.RecoveryAttempts != 0 {
		t.Fatalf("spent budget: outcome %s attempts %d, want detected/0", res.Outcome, res.RecoveryAttempts)
	}

	// A sliver of leftover budget buys a replay that times out: recovery
	// must charge replayed work against the shared budget, not reset it.
	res = rec.RunRecover(-1, plan, detected.Instret+10, sim.RecoveryPolicy{MaxAttempts: 3})
	if res.Outcome != sim.Timeout {
		t.Fatalf("outcome %s, want timeout from the budget-capped replay", res.Outcome)
	}
	if res.RecoveryAttempts != 1 {
		t.Fatalf("recovery attempts %d, want 1", res.RecoveryAttempts)
	}
	if res.RecoverInstret == 0 || res.RecoverInstret > detected.Instret+10 {
		t.Fatalf("implausible replay work %d for budget %d", res.RecoverInstret, detected.Instret+10)
	}

	// Two flips with checkpoints between them: the first replay resumes
	// past its rollback point, at the checkpoint before the second flip,
	// yet is charged from the rollback point, and the budget it leaves is
	// what the second replay may spend. Every budget whose replay limit
	// lands on a checkpoint, between two, or short of the second replay's
	// end must give the rollback model's result.
	plan = &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 100, Bit: 2}, {At: 200, Bit: 9}}}
	first := rec.RunFrom(-1, plan, 0)
	pol := sim.RecoveryPolicy{MaxAttempts: 3}
	full := rec.ReferenceRunRecover(-1, plan, 0, pol)
	if first.Outcome != sim.Detected || full.Outcome != sim.Recovered || full.RecoveryAttempts != 2 {
		t.Fatalf("two-flip plan: first run %s, oracle %s after %d attempts; want detected, then recovered after 2",
			first.Outcome, full.Outcome, full.RecoveryAttempts)
	}
	snaps := rec.Snapshots()
	rIdx := rec.SnapshotBefore(first.EligibleExec + 1)
	resume := rec.SnapshotBefore(plan.Injections[1].At)
	if resume <= rIdx+1 {
		t.Fatalf("rollback checkpoint %d, resume checkpoint %d: the test needs checkpoints between them", rIdx, resume)
	}
	rollback := snaps[rIdx].Instret
	// spend turns a first-replay limit into the trial budget that yields it.
	spend := func(limit uint64) uint64 { return first.Instret + limit - rollback }
	budgets := []uint64{spend(snaps[resume].Instret), spend(snaps[resume].Instret + 3), spend(snaps[rIdx+1].Instret)}
	for _, cut := range []uint64{1, 5, 40} {
		budgets = append(budgets, first.Instret+full.RecoverInstret-cut)
	}
	for _, b := range budgets {
		got := rec.RunRecover(-1, plan, b, pol)
		want := rec.ReferenceRunRecover(-1, plan, b, pol)
		if got.Outcome != sim.Timeout {
			t.Fatalf("budget %d: outcome %s, want timeout", b, got.Outcome)
		}
		if !recoverEqual(got, want) {
			t.Fatalf("budget %d: RunRecover diverges from the rollback oracle:\ngot:  %+v\nwant: %+v", b, got, want)
		}
	}
	// The clamped case pinned by value: a limit exactly at a checkpoint
	// between rollback and resume point times out there.
	mid := snaps[rIdx+1].Instret
	res = rec.RunRecover(-1, plan, spend(mid), pol)
	if res.Instret != mid || res.RecoverInstret != mid-rollback || res.RecoveryAttempts != 1 {
		t.Fatalf("limit at checkpoint %d: instret %d, replay work %d, attempts %d; want %d, %d, 1",
			rIdx+1, res.Instret, res.RecoverInstret, res.RecoveryAttempts, mid, mid-rollback)
	}
}

// recoverEqual compares every sim.Result field. Output is compared by
// content: a run from scratch that printed nothing returns nil, one
// resumed at a checkpoint an empty slice.
func recoverEqual(a, b sim.Result) bool {
	if !bytes.Equal(a.Output, b.Output) {
		return false
	}
	a.Output, b.Output = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestRunRecoverMatchesReference pins RunRecover, whose replays resume at
// ResumeIdx, against the rollback oracle, whose replays resume at the
// rollback checkpoint and re-simulate the golden prefix. Subjects are the
// shorter hardened apps under the detection mask, at 1-4 errors and several
// budgets: the campaign default, 4/3 and 1/2 of golden, and per detected
// plan one whose first replay limit equals a checkpoint's Instret between
// the rollback and the resume point.
func TestRunRecoverMatchesReference(t *testing.T) {
	// The four apps with the shortest golden passes: the oracle
	// re-simulates a golden tail per replay.
	names, seeds := []string{"adpcm", "gsm", "blowfish", "mcf"}, int64(12)
	if testing.Short() {
		names, seeds = names[:1], 2
	}
	pol := sim.RecoveryPolicy{MaxAttempts: 3}
	for _, name := range names {
		app, ok := all.ByName(name)
		if !ok {
			t.Fatalf("no app %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			hard := hardenApp(t, app)
			mask := hard.PrimaryProtected
			rec, err := sim.Record(hard.Prog, sim.Config{Input: app.Input(), Plan: &sim.FaultPlan{Eligible: mask}}, sim.RecordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			golden := rec.Result.Instret
			snaps := rec.Snapshots()
			var plans, recovered, clamped int
			check := func(idx int, plan *sim.FaultPlan, budget uint64) sim.Result {
				t.Helper()
				got := rec.RunRecover(idx, plan, budget, pol)
				want := rec.ReferenceRunRecover(idx, plan, budget, pol)
				if !recoverEqual(got, want) {
					t.Fatalf("start %d plan %v budget %d: RunRecover diverges from the rollback oracle:\ngot:  %+v\nwant: %+v",
						idx, plan.Injections, budget, got, want)
				}
				plans++
				if got.Outcome == sim.Recovered {
					recovered++
				}
				return got
			}
			for errors := 1; errors <= 4; errors++ {
				for seed := int64(1); seed <= seeds; seed++ {
					plan, err := fault.NewPlanBits(mask, rec.Result.EligibleExec, errors, seed*131+int64(errors), 0, 31)
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range []uint64{golden*16 + 10_000_000, golden * 4 / 3, golden / 2} {
						check(rec.ResumeIdx(plan, b), plan, b)
					}
					// A first-replay limit exactly at a checkpoint between
					// the rollback and resume points: the clamped resume
					// must time out where the rollback replay does. The
					// first attempt runs from scratch, so the whole budget
					// it charges is also the instret it reached.
					first := rec.RunFrom(-1, plan, 0)
					if first.Outcome != sim.Detected {
						continue
					}
					rIdx := rec.SnapshotBefore(first.EligibleExec + 1)
					replay := &sim.FaultPlan{Eligible: mask, Injections: plan.Injections[first.Injected:]}
					resume := rec.ResumeIdx(replay, 0)
					if rIdx < 0 || resume <= rIdx {
						continue
					}
					k := rIdx + 1 + (resume-rIdx-1)/2
					budget := first.Instret + snaps[k].Instret - snaps[rIdx].Instret
					if res := check(-1, plan, budget); res.Outcome != sim.Timeout || res.Instret != snaps[k].Instret {
						t.Fatalf("plan %v: limit at checkpoint %d gave %s at instret %d, want timeout at %d",
							plan.Injections, k, res.Outcome, res.Instret, snaps[k].Instret)
					}
					clamped++
				}
			}
			if recovered == 0 || clamped == 0 {
				t.Fatalf("%d plans: %d recovered, %d with a clamped replay; the differential exercised too little", plans, recovered, clamped)
			}
			t.Logf("%d plans, %d recovered, %d with a clamped replay", plans, recovered, clamped)
		})
	}
}

// TestRunFromRejectsForeignMask pins the mask-fingerprint guard: running a
// recording, from a checkpoint or from scratch, under a plan whose
// eligibility mask differs in content from the recorded one must fail fast
// instead of silently mis-placing every injection. An equal-content copy
// of the mask (different slice identity) must still be accepted, and a
// scratch run under another mask is exactly Run.
func TestRunFromRejectsForeignMask(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 150, Bit: 5}}}
	idx := rec.ResumeIdx(plan, 0)

	copyMask := make([]bool, len(base.Eligible))
	copy(copyMask, base.Eligible)
	same := rec.RunFrom(idx, &sim.FaultPlan{Eligible: copyMask, Injections: plan.Injections}, 0)
	if !resultsEqual(same, rec.RunFrom(idx, plan, 0)) {
		t.Fatal("equal-content mask copy changed the result")
	}

	foreign := make([]bool, len(base.Eligible))
	for i := range foreign {
		foreign[i] = !base.Eligible[i]
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: run under a foreign mask did not panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "eligibility mask") {
				t.Fatalf("%s: unexpected panic %v", name, r)
			}
		}()
		f()
	}
	mustPanic("RunFrom", func() {
		rec.RunFrom(idx, &sim.FaultPlan{Eligible: foreign, Injections: plan.Injections}, 0)
	})
	mustPanic("RunRecover", func() {
		rec.RunRecover(idx, &sim.FaultPlan{Eligible: foreign, Injections: plan.Injections}, 0,
			sim.RecoveryPolicy{MaxAttempts: 1})
	})
	// A scratch run counts ordinals on the recorded stream too, so it
	// rejects a foreign mask as well.
	mustPanic("scratch RunFrom", func() {
		rec.RunFrom(-1, &sim.FaultPlan{Eligible: foreign}, 0)
	})
	p, err := asm.Assemble(detectProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res := sim.Run(p, sim.Config{Plan: &sim.FaultPlan{Eligible: foreign}}); res.Outcome != sim.OK {
		t.Fatalf("Run under a different mask: outcome %s", res.Outcome)
	}
}
