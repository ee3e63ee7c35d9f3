package campaign_test

// Engine setup and one-trial API on a small hand-written program: the
// clean-run budget, rejection of programs and masks nothing can be
// injected into, and Run/RunBits determinism.

import (
	"testing"

	"etap/internal/asm"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/isa"
	"etap/internal/sim"
)

const loopProgram = `
.text
.func __start
	li $t5, 0
	li $t6, 0
loop:
	add $t6, $t6, $t5
	mul $t7, $t5, $t5
	add $t6, $t6, $t7
	addi $t5, $t5, 1
	slti $at, $t5, 200
	bnez $at, loop
	move $a0, $t6
	li $v0, 1
	syscall
.endfunc
`

func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// loopEngine prepares an engine over loopProgram with every injectable
// instruction eligible.
func loopEngine(t *testing.T) *campaign.Engine {
	t.Helper()
	p := assemble(t, loopProgram)
	e, err := campaign.New(p, core.EligibleAll(p), sim.Config{}, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCleanRunRecorded(t *testing.T) {
	e := loopEngine(t)
	if e.Clean.Outcome != sim.OK {
		t.Fatalf("clean outcome %s", e.Clean.Outcome)
	}
	if e.Clean.EligibleExec == 0 {
		t.Fatalf("no eligible instructions recorded")
	}
	if e.Budget <= e.Clean.Instret {
		t.Fatalf("budget %d not above clean instret %d", e.Budget, e.Clean.Instret)
	}
}

func TestRunInjectsAllErrors(t *testing.T) {
	e := loopEngine(t)
	res := e.Run(10, 7)
	// Everything is eligible, so the run may crash; but if it completes,
	// all ten injections must have fired.
	if res.Outcome == sim.OK && res.Injected != 10 {
		t.Fatalf("completed with %d/10 injections", res.Injected)
	}
}

func TestRunDeterministic(t *testing.T) {
	e := loopEngine(t)
	a := e.Run(5, 99)
	b := e.Run(5, 99)
	if !resultsEqual(a, b) {
		t.Fatalf("runs diverged: %v/%d vs %v/%d", a.Outcome, a.ExitCode, b.Outcome, b.ExitCode)
	}
}

func TestZeroErrorsMatchesClean(t *testing.T) {
	e := loopEngine(t)
	if res := e.Run(0, 1); !resultsEqual(res, e.Clean) {
		t.Fatalf("zero-error run differs from clean: %v exit %d vs %d",
			res.Outcome, res.ExitCode, e.Clean.ExitCode)
	}
}

func TestEligibleFraction(t *testing.T) {
	e := loopEngine(t)
	if f := e.EligibleFraction(); f <= 0 || f > 1 {
		t.Fatalf("eligible fraction %f out of range", f)
	}
}

// TestRunBitsRestrictsLaneDeterministically: RunBits flips only bits of
// the requested lane, and a (count, seed, lane) triple always reproduces
// the same trial.
func TestRunBitsRestrictsLaneDeterministically(t *testing.T) {
	e := loopEngine(t)
	a := e.RunBits(5, 3, 0, 7)
	b := e.RunBits(5, 3, 0, 7)
	if !resultsEqual(a, b) {
		t.Fatalf("RunBits not deterministic")
	}
	// One seed draws the same ordinal in any lane, so a bit-0 flip and a
	// bit-31 flip strike the same register and must leave different runs.
	lane0 := e.RunBits(1, 11, 0, 0)
	if lane0.Injected != 1 {
		t.Fatalf("bit-0 trial fired %d injections", lane0.Injected)
	}
	full := e.RunBits(1, 11, 31, 31)
	if resultsEqual(lane0, full) {
		t.Fatalf("bit lanes 0 and 31 produced identical trials")
	}
}

func TestNewRejectsBrokenPrograms(t *testing.T) {
	p := assemble(t, `
.text
.func __start
	li $t0, 0
	li $t1, 1
	div $t2, $t1, $t0
	li $v0, 1
	syscall
.endfunc
`)
	if _, err := campaign.New(p, core.EligibleAll(p), sim.Config{}, campaign.Config{}); err == nil {
		t.Fatalf("engine accepted a program that crashes cleanly")
	}
}

func TestNewRejectsNoEligible(t *testing.T) {
	p := assemble(t, loopProgram)
	if _, err := campaign.New(p, make([]bool, len(p.Text)), sim.Config{}, campaign.Config{}); err == nil {
		t.Fatalf("engine accepted an empty eligibility mask")
	}
}

func TestNewRejectsBadMask(t *testing.T) {
	p := assemble(t, loopProgram)
	if _, err := campaign.New(p, make([]bool, 2), sim.Config{}, campaign.Config{}); err == nil {
		t.Fatalf("engine accepted a short mask")
	}
}
