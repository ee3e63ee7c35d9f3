package core

import (
	"fmt"
	"strings"
	"testing"

	"etap/internal/asm"
	"etap/internal/isa"
)

func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func analyze(t *testing.T, src string, pol Policy) *Report {
	t.Helper()
	r, err := Analyze(assemble(t, src), pol)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return r
}

// traceSlice runs a single backward pass over a straight-line instruction
// sequence, starting from the given exit set, and returns the CVar set
// after processing each instruction (indexed like instrs). It reproduces
// the paper's worked example verbatim; the real analysis iterates the
// same transfer function to fixpoint over the CFG.
func traceSlice(instrs []isa.Instr, exit RegMask, pol Policy) []RegMask {
	res := make([]RegMask, len(instrs))
	cv := exit
	for i := len(instrs) - 1; i >= 0; i-- {
		if instrs[i].Op == isa.JAL || instrs[i].Op == isa.JALR {
			// traceSlice has no call-graph context.
			cv &^= CallerSaved
		} else {
			cv = step(instrs[i], cv, pol)
		}
		res[i] = cv
	}
	return res
}

// TestPaperWorkedExample reproduces the Section 3 example instruction by
// instruction, asserting both the CVar set evolution and the tag set
// {I0, I4, I6}.
func TestPaperWorkedExample(t *testing.T) {
	// I0: $2 = $4 + 1            *
	// I1: LD $3, addr            (absolute load)
	// I2: $2 = $3 + 2            [$3]
	// I3: $3 = $3 + 8            [$3, $2]
	// I4: $10 = $8 - $4          [$3, $2]   *
	// I5: $10 = $3 << $2         [$3, $2]
	// I6: $4 = $3 + $6           [$3, $10]  *
	// I7: $3 = $3 + 1            [$3, $10]
	// I8: BNE $3, $10, label     [$3, $10]
	text := []isa.Instr{
		{Op: isa.ADDI, Rd: 2, Rs: 4, Imm: 1}, // I0
		{Op: isa.LW, Rd: 3, Rs: isa.RegZero}, // I1
		{Op: isa.ADDI, Rd: 2, Rs: 3, Imm: 2}, // I2
		{Op: isa.ADDI, Rd: 3, Rs: 3, Imm: 8}, // I3
		{Op: isa.SUB, Rd: 10, Rs: 8, Rt: 4},  // I4
		{Op: isa.SLLV, Rd: 10, Rs: 3, Rt: 2}, // I5
		{Op: isa.ADD, Rd: 4, Rs: 3, Rt: 6},   // I6
		{Op: isa.ADDI, Rd: 3, Rs: 3, Imm: 1}, // I7
		{Op: isa.BNE, Rs: 3, Rt: 10, Imm: 0}, // I8
	}
	got := traceSlice(text, 0, PolicyControl)

	want := []RegMask{
		0,             // after I0 (set was empty before I0 in backward order)
		0,             // after I1: LD removes $3, absolute address adds nothing
		maskOf(3),     // after I2
		maskOf(3, 2),  // after I3
		maskOf(3, 2),  // after I4
		maskOf(3, 2),  // after I5
		maskOf(3, 10), // after I6
		maskOf(3, 10), // after I7
		maskOf(3, 10), // after I8
	}
	for i := range text {
		if got[i] != want[i] {
			t.Errorf("I%d: CVar = %s, want %s", i, got[i], want[i])
		}
	}

	// Tag decision: arithmetic instructions whose destination is not in the
	// set that was live below them.
	wantTagged := map[int]bool{0: true, 4: true, 6: true}
	for i, in := range text {
		if in.Class() != isa.ClassArith {
			continue
		}
		below := RegMask(0)
		if i+1 < len(text) {
			below = got[i+1]
		}
		tagged := !below.Has(in.Rd)
		if tagged != wantTagged[i] {
			t.Errorf("I%d: tagged = %v, want %v", i, tagged, wantTagged[i])
		}
	}
}

// TestWorkedExampleViaFullAnalysis runs the same example through the real
// CFG-based analysis (with an exit appended so it is a complete function)
// and checks the tag set.
func TestWorkedExampleViaFullAnalysis(t *testing.T) {
	src := `
.text
.func example tolerant
	addi $v0, $a0, 1        # I0: tagged
	lw $v1, 4096($zero)     # I1
	addi $v0, $v1, 2        # I2
	addi $v1, $v1, 8        # I3
	sub $t2, $t0, $a0       # I4: tagged
	sllv $t2, $v1, $v0      # I5
	add $a0, $v1, $a2       # I6: tagged
	addi $v1, $v1, 1        # I7
	bne $v1, $t2, done      # I8
	nop
done:
	jr $ra
.endfunc
.func __start
	jal example
	li $v0, 1
	syscall
.endfunc
`
	r := analyze(t, src, PolicyControl)
	f, _ := r.Prog.FuncByName("example")
	var taggedIdx []int
	for i := f.Start; i < f.End; i++ {
		if r.Tagged[i] {
			taggedIdx = append(taggedIdx, i-f.Start)
		}
	}
	want := []int{0, 4, 6}
	if len(taggedIdx) != len(want) {
		t.Fatalf("tagged = %v, want %v", taggedIdx, want)
	}
	for i := range want {
		if taggedIdx[i] != want[i] {
			t.Fatalf("tagged = %v, want %v", taggedIdx, want)
		}
	}
}

// TestBranchConditionProtected: the chain feeding a branch is control.
func TestBranchConditionProtected(t *testing.T) {
	src := `
.text
.func f tolerant
	addi $t0, $zero, 5      # feeds the branch: control
	addi $t1, $zero, 9      # dead for control: tagged
	add  $t2, $t0, $t0      # feeds the branch: control
	beqz $t2, out
	addi $t3, $t1, 1        # tagged
out:
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	r := analyze(t, src, PolicyControl)
	f, _ := r.Prog.FuncByName("f")
	wantTag := []bool{false, true, false, false, true}
	for i, w := range wantTag {
		if r.Tagged[f.Start+i] != w {
			t.Errorf("instr %d: tagged=%v, want %v (cvar out %s)",
				i, r.Tagged[f.Start+i], w, r.CVarOut[f.Start+i])
		}
	}
}

// TestLoadTerminatesChain: per the paper, a load of a control variable ends
// the chain (memory is not tracked) but taints its address base register.
func TestLoadTerminatesChain(t *testing.T) {
	src := `
.text
.func f tolerant
	addi $t5, $zero, 4096   # address producer: becomes control via the lw
	addi $t1, $zero, 1      # value producer stored then reloaded: NOT control (the hole)
	sw   $t1, 0($t5)
	lw   $t0, 0($t5)
	beqz $t0, out
	nop
out:
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	r := analyze(t, src, PolicyControl)
	f, _ := r.Prog.FuncByName("f")
	if r.Tagged[f.Start+0] {
		t.Errorf("address producer should be protected (control), got tagged")
	}
	if !r.Tagged[f.Start+1] {
		t.Errorf("stored value should be tagged under PolicyControl (the paper's memory hole)")
	}

	// PolicyConservative closes the hole: the stored value is control too.
	rc := analyze(t, src, PolicyConservative)
	if rc.Tagged[f.Start+1] {
		t.Errorf("stored value should be protected under PolicyConservative")
	}
}

// TestPolicyControlAddrProtectsAllAddresses: a store address is control
// even when the loaded value never reaches a branch.
func TestPolicyControlAddrProtectsAllAddresses(t *testing.T) {
	src := `
.text
.func f tolerant
	addi $t5, $zero, 4096   # store address
	addi $t1, $zero, 1      # stored value
	sw   $t1, 0($t5)
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	rc := analyze(t, src, PolicyControl)
	f, _ := rc.Prog.FuncByName("f")
	if !rc.Tagged[f.Start+0] || !rc.Tagged[f.Start+1] {
		t.Errorf("PolicyControl: both producers should be tagged (nothing reaches control)")
	}
	ra := analyze(t, src, PolicyControlAddr)
	if ra.Tagged[f.Start+0] {
		t.Errorf("PolicyControlAddr: store-address producer should be protected")
	}
	if !ra.Tagged[f.Start+1] {
		t.Errorf("PolicyControlAddr: stored value should still be tagged")
	}
}

// TestInterproceduralArgument: an argument used for control in the callee
// protects the caller's computation feeding it.
func TestInterproceduralArgument(t *testing.T) {
	src := `
.text
.func callee tolerant
	beqz $a0, out           # a0 is control-live at entry
	nop
out:
	jr $ra
.endfunc
.func caller tolerant
	addi $t0, $zero, 3      # feeds a0: control
	addi $t1, $zero, 9      # feeds a1: data, tagged
	move $a0, $t0
	move $a1, $t1
	jal callee
	jr $ra
.endfunc
.func __start
	jal caller
	li $v0, 1
	syscall
.endfunc
`
	r := analyze(t, src, PolicyControl)
	callee, _ := r.Prog.FuncByName("callee")
	calleeID := -1
	for i, f := range r.Prog.Funcs {
		if f.Name == "callee" {
			calleeID = i
		}
	}
	if !r.Summaries[calleeID].ArgsControl.Has(isa.RegA0) {
		t.Fatalf("callee summary should mark a0 control, got %s", r.Summaries[calleeID].ArgsControl)
	}
	if r.Summaries[calleeID].ArgsControl.Has(isa.RegA1) {
		t.Fatalf("callee summary should not mark a1 control")
	}
	_ = callee

	caller, _ := r.Prog.FuncByName("caller")
	// addi $t0 (feeds a0) protected; addi $t1 (feeds a1) tagged;
	// move $a0 protected; move $a1 tagged.
	wantTag := []bool{false, true, false, true}
	for i, w := range wantTag {
		if r.Tagged[caller.Start+i] != w {
			t.Errorf("caller instr %d: tagged=%v, want %v (cvar out %s)",
				i, r.Tagged[caller.Start+i], w, r.CVarOut[caller.Start+i])
		}
	}
}

// TestInterproceduralReturnValue: a caller branching on a return value
// protects the callee's v0 definitions.
func TestInterproceduralReturnValue(t *testing.T) {
	src := `
.text
.func callee tolerant
	addi $v0, $zero, 1      # defines the return value: control because caller branches on it
	addi $t0, $zero, 2      # unrelated: tagged
	jr $ra
.endfunc
.func caller tolerant
	jal callee
	beqz $v0, out
	nop
out:
	jr $ra
.endfunc
.func __start
	jal caller
	li $v0, 1
	syscall
.endfunc
`
	r := analyze(t, src, PolicyControl)
	callee, _ := r.Prog.FuncByName("callee")
	if r.Tagged[callee.Start+0] {
		t.Errorf("v0 definition should be protected when a caller branches on the result")
	}
	if !r.Tagged[callee.Start+1] {
		t.Errorf("unrelated arithmetic in callee should stay tagged")
	}
}

// TestNonTolerantFunctionNeverTagged: tagging requires the user-supplied
// tolerance annotation, as in the paper's methodology.
func TestNonTolerantFunctionNeverTagged(t *testing.T) {
	src := `
.text
.func f
	addi $t0, $zero, 1
	addi $t1, $zero, 2
	add  $t2, $t0, $t1
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	r := analyze(t, src, PolicyControl)
	for i := range r.Prog.Text {
		if r.Tagged[i] {
			t.Fatalf("instruction %d tagged in non-tolerant program", i)
		}
	}
	if s := r.Stats(); s.TaggedStatic != 0 || s.TolerantFuncs != 0 {
		t.Fatalf("stats = %+v, want no tagged/tolerant", s)
	}
}

// TestSyscallArgumentsAreControl: computations feeding a syscall's v0/a0/a1
// are protected (a corrupted syscall number or buffer pointer is
// catastrophic).
func TestSyscallArgumentsAreControl(t *testing.T) {
	src := `
.text
.func __start tolerant
__entry:
	addi $a0, $zero, 4096   # buffer address: control
	addi $a1, $zero, 4      # length: control
	addi $t9, $zero, 123    # dead: tagged
	addi $v0, $zero, 4      # syscall number: control
	syscall
	li $v0, 1
	syscall
.endfunc
`
	r := analyze(t, src, PolicyControl)
	wantTag := []bool{false, false, true, false}
	for i, w := range wantTag {
		if r.Tagged[i] != w {
			t.Errorf("instr %d: tagged=%v, want %v (cvar out %s)", i, r.Tagged[i], w, r.CVarOut[i])
		}
	}
}

// TestLoopFixpoint: a value carried around a loop and eventually compared
// must be control-live everywhere in the loop.
func TestLoopFixpoint(t *testing.T) {
	src := `
.text
.func f tolerant
	addi $t0, $zero, 0      # i = 0: control (loop counter)
	addi $t1, $zero, 0      # acc = 0: data, tagged
loop:
	add  $t1, $t1, $t0      # acc += i: tagged
	addi $t0, $t0, 1        # i++: control
	slti $at, $t0, 10
	bnez $at, loop
	move $v0, $t1
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	r := analyze(t, src, PolicyControl)
	f, _ := r.Prog.FuncByName("f")
	wantTag := map[int]bool{0: false, 1: true, 2: true, 3: false}
	for i, w := range wantTag {
		if r.Tagged[f.Start+i] != w {
			t.Errorf("instr %d: tagged=%v, want %v (cvar out %s)", i, r.Tagged[f.Start+i], w, r.CVarOut[f.Start+i])
		}
	}
}

// TestPolicyMonotonicity: stronger policies can only shrink the tag set.
func TestPolicyMonotonicity(t *testing.T) {
	src := `
.text
.func f tolerant
	addi $t0, $zero, 4096
	addi $t1, $zero, 7
	sw   $t1, 0($t0)
	lw   $t2, 4($t0)
	add  $t3, $t2, $t1
	sw   $t3, 8($t0)
	slti $at, $t3, 100
	beqz $at, out
	addi $t4, $zero, 1
out:
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	prog := assemble(t, src)
	var tagged [3][]bool
	for i, pol := range []Policy{PolicyControl, PolicyControlAddr, PolicyConservative} {
		r, err := Analyze(prog, pol)
		if err != nil {
			t.Fatalf("analyze(%s): %v", pol, err)
		}
		tagged[i] = r.Tagged
	}
	for i := range prog.Text {
		if tagged[1][i] && !tagged[0][i] {
			t.Errorf("instr %d tagged under ControlAddr but not Control", i)
		}
		if tagged[2][i] && !tagged[1][i] {
			t.Errorf("instr %d tagged under Conservative but not ControlAddr", i)
		}
	}
}

func TestCFGErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"branch out of function", `
.text
.func a
	beqz $t0, other
	jr $ra
.endfunc
.func b
other:
	jr $ra
.endfunc
`},
		{"call to non-entry", `
.text
.func a
	addi $t0, $zero, 1
mid:
	jr $ra
.endfunc
.func b
	jal mid
	jr $ra
.endfunc
`},
		{"call in final slot", `
.text
.func a
	jr $ra
.endfunc
.func b
	jal a
.endfunc
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := assemble(t, c.src)
			if _, err := Analyze(p, PolicyControl); err == nil {
				t.Fatalf("analyze succeeded, want error")
			}
		})
	}
}

func TestRegMaskString(t *testing.T) {
	if got := maskOf(3, 2).String(); got != "[$3, $2]" {
		t.Errorf("mask string = %q, want %q", got, "[$3, $2]")
	}
	if got := RegMask(0).String(); got != "[]" {
		t.Errorf("empty mask string = %q, want %q", got, "[]")
	}
}

func TestEligibleAll(t *testing.T) {
	src := `
.text
.func f
	addi $t0, $zero, 1
	lw $t1, 4096($zero)
	sw $t1, 4096($zero)
	beqz $t0, out
	nop
out:
	jr $ra
.endfunc
.func __start
	jal f
	li $v0, 1
	syscall
.endfunc
`
	p := assemble(t, src)
	el := EligibleAll(p)
	for i, in := range p.Text {
		want := in.IsInjectable()
		if el[i] != want {
			t.Errorf("instr %d (%s): eligible=%v, want %v", i, isa.Disasm(in), el[i], want)
		}
	}
}

// summaryChainSrc builds a valid program of n chain functions f0..f{n-1}
// plus __start whose summaries need about five waves of n steps each to
// reach their fixpoint. Each f_i (i < n-1) first calls f_{i+1} without
// touching a0–a3, so control-live arguments climb from the top of the
// chain to f0 one function at a time. The top function branches on $a0
// and calls f0 with a0←a1, a1←a2, a2←a3, so each argument wave seeds the
// next only once it reaches f0. f_{n-2} passes the $v0 of its call to the
// top function as f0's $a3, and every f_i (i > 0) then zeroes a0–a3,
// calls f_{i-1} and returns that call's $v0, so RetControl descends the
// chain one function at a time once the last argument wave is done.
func summaryChainSrc(n int) string {
	var b strings.Builder
	b.WriteString(".text\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ".func f%d tolerant\n\taddi $sp, $sp, -4\n\tsw $ra, 0($sp)\n", i)
		switch {
		case i == n-1:
			b.WriteString("\tbeqz $a0, out\n\tmove $a0, $a1\n\tmove $a1, $a2\n\tmove $a2, $a3\n\tjal f0\nout:\n")
		case i == n-2:
			fmt.Fprintf(&b, "\tjal f%d\n\tmove $a3, $v0\n\tjal f0\n", i+1)
		default:
			fmt.Fprintf(&b, "\tjal f%d\n", i+1)
		}
		if i > 0 {
			fmt.Fprintf(&b, "\tli $a0, 0\n\tli $a1, 0\n\tli $a2, 0\n\tli $a3, 0\n\tjal f%d\n", i-1)
		}
		b.WriteString("\tlw $ra, 0($sp)\n\taddi $sp, $sp, 4\n\tjr $ra\n.endfunc\n")
	}
	b.WriteString(".func __start\n\tjal f0\n\tli $v0, 1\n\tsyscall\n.endfunc\n")
	return b.String()
}

// TestAnalyzeSummaryChain: the summary fixpoint converges however many
// rounds of summary growth a valid program needs. Summaries only grow,
// so no round bound below the lattice height may cut the analysis off.
func TestAnalyzeSummaryChain(t *testing.T) {
	for _, n := range []int{16, 20, 24, 30} {
		t.Run(fmt.Sprintf("funcs=%d", n), func(t *testing.T) {
			r := analyze(t, summaryChainSrc(n), PolicyControl)
			for i := 0; i < n; i++ {
				s := r.Summaries[i]
				if s.ArgsControl != argRegs || !s.RetControl {
					t.Errorf("f%d summary = {%v %t}, want {%v true}", i, s.ArgsControl, s.RetControl, argRegs)
				}
			}
		})
	}
}
