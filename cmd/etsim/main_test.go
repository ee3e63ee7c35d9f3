package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"etap/internal/core"
	"etap/internal/sim"
)

// pinMC is a small MiniC program: a tolerant pixel loop between an
// input loop and an output loop.
const pinMC = `
char buf[64];

tolerant void scale(char *p, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        p[i] = p[i] * 3 / 2 + 1;
    }
}

int main() {
    int i;
    for (i = 0; i < 64; i = i + 1) { buf[i] = inb(); }
    scale(buf, 64);
    for (i = 0; i < 64; i = i + 1) { outb(buf[i]); }
    return 0;
}
`

// pinS is a small hand-written assembly program: a tolerant function
// fills a buffer that __start then writes out.
const pinS = `
.text
.func __start
	la $a0, buf
	li $a1, 16
	jal fill
	la $a0, buf
	li $a1, 16
	li $v0, 4
	syscall
	li $a0, 0
	li $v0, 1
	syscall
.endfunc
.func fill tolerant
	li $t0, 0
	li $t2, 7
loop:
	mul $t3, $t0, $t2
	addi $t3, $t3, 3
	xor $t3, $t3, $t0
	add $t4, $a0, $t0
	sb $t3, 0($t4)
	addi $t0, $t0, 1
	bne $t0, $a1, loop
	jr $ra
.endfunc
.data
buf:	.space 16
`

// summary renders the fields of a faulty run that the pins compare.
func summary(r sim.Result) string {
	return fmt.Sprintf("%s trap=%q exit=%d instret=%d injected=%d output=%x",
		r.Outcome, r.Trap.String(), r.ExitCode, r.Instret, r.Injected, r.Output)
}

// TestFaultyRunsPinned: two injected errors at seed 5, protected and
// unprotected, into a MiniC and an assembly program give the recorded
// results.
func TestFaultyRunsPinned(t *testing.T) {
	dir := t.TempDir()
	mc := filepath.Join(dir, "prog.mc")
	s := filepath.Join(dir, "prog.s")
	in := filepath.Join(dir, "in.bin")
	input := make([]byte, 64)
	for i := range input {
		input[i] = byte(i*37 + 11)
	}
	for name, data := range map[string][]byte{mc: []byte(pinMC), s: []byte(pinS), in: input} {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		prog, in    string
		unprotected bool
		want        string
	}{
		{mc, in, false, `ok trap="none at pc=0 addr=0x0" exit=0 instret=4667 injected=2 output=114980b8ef275e164d85bcf42b631a5289c1f830671f568ec4fd346c235b92ca013970285f97ce063d752c649bd30a42793168a0d70f467e356da4dc134b023a`},
		{mc, in, true, `ok trap="none at pc=0 addr=0x0" exit=0 instret=3724 injected=2 output=114980b8ef275e164d85bcf42b631a5289c1f830671f565e83a8cdf2173c618686d0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe23486d92b7dc0126`},
		{s, "", false, `ok trap="none at pc=0 addr=0x0" exit=0 instret=127 injected=2 output=030b131b24232b33334b435b5b536b63`},
		{s, "", true, `ok trap="none at pc=0 addr=0x0" exit=0 instret=127 injected=2 output=030b131b1b232b33334b435a5b536b63`},
	} {
		res, err := run(tc.prog, tc.in, 0, 2, 5, tc.unprotected, core.PolicyControlAddr)
		if err != nil {
			t.Fatalf("%s unprotected=%v: %v", filepath.Base(tc.prog), tc.unprotected, err)
		}
		if got := summary(res); got != tc.want {
			t.Errorf("%s unprotected=%v:\n got %s\nwant %s", filepath.Base(tc.prog), tc.unprotected, got, tc.want)
		}
	}
}
