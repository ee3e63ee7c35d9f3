package sim_test

import (
	"bytes"
	"strings"
	"testing"

	"etap/internal/asm"
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

// startFor picks the checkpoint a trial plan would resume from, mirroring
// the campaign engine's planIdx.
func startFor(rec *sim.Recording, plan *sim.FaultPlan) int {
	if len(plan.Injections) > 0 {
		return rec.SnapshotBefore(plan.Injections[0].At)
	}
	return len(rec.Snapshots()) - 1
}

func TestRunRecoverRestoresGoldenOutput(t *testing.T) {
	rec, base := recordDetect(t)
	plan := &sim.FaultPlan{Eligible: base.Eligible, Injections: []sim.Injection{{At: 150, Bit: 5}}}
	idx := startFor(rec, plan)

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
	idx := startFor(rec, plan)

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
	idx := startFor(rec, plan)

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
	idx := startFor(rec, plan)

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
