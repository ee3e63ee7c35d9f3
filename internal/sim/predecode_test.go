package sim

import (
	"testing"

	"etap/internal/isa"
)

// TestCompileFusion pins the fusion rules: which adjacent pairs become
// superinstructions, and the guards that keep a pair unfused when the
// first slot is eligible for injection or writes $zero.
func TestCompileFusion(t *testing.T) {
	text := []isa.Instr{
		{Op: isa.LUI, Rd: 8, Imm: 0x1234},              // 0: fuses with 1
		{Op: isa.ORI, Rd: 9, Rs: 8, Imm: 0x5678},       // 1
		{Op: isa.ADDI, Rd: 10, Rs: 29, Imm: -8},        // 2: fuses with 3
		{Op: isa.LW, Rd: 11, Rs: 10, Imm: 4},           // 3
		{Op: isa.ADDI, Rd: 12, Rs: 29, Imm: -16},       // 4: fuses with 5
		{Op: isa.SW, Rt: 11, Rs: 12, Imm: 0},           // 5
		{Op: isa.SLT, Rd: 13, Rs: 10, Rt: 11},          // 6: fuses with 7
		{Op: isa.BNE, Rs: 13, Rt: isa.RegZero, Imm: 2}, // 7
		{Op: isa.SLTU, Rd: 14, Rs: 10, Rt: 11},         // 8: fuses with 9
		{Op: isa.BEQ, Rs: isa.RegZero, Rt: 14, Imm: 0}, // 9 (swapped operands)
		{Op: isa.LUI, Rd: isa.RegZero, Imm: 1},         // 10: $zero dest, no fusion
		{Op: isa.ORI, Rd: 15, Rs: isa.RegZero},         // 11
		{Op: isa.SLT, Rd: 16, Rs: 10, Rt: 11},          // 12: B compares a third reg, no fusion
		{Op: isa.BNE, Rs: 17, Rt: isa.RegZero, Imm: 0}, // 13
	}
	code := compile(text, nil, nil)
	wantKinds := map[int]uint8{
		0: kLuiOri, 2: kAddiLw, 4: kAddiSw, 6: kSltBne, 8: kSltuBeq,
		10: uint8(isa.LUI), 12: uint8(isa.SLT),
	}
	for i, want := range wantKinds {
		if code[i].kind != want {
			t.Errorf("slot %d: kind = %d, want %d", i, code[i].kind, want)
		}
	}
	// The second slot of every fused pair must stay a valid single entry.
	for _, i := range []int{1, 3, 5, 7, 9} {
		if code[i].kind != uint8(text[i].Op) {
			t.Errorf("slot %d: B half rewritten to kind %d", i, code[i].kind)
		}
	}
	// $zero destinations redirect to the write sink.
	if code[10].rd != regSink {
		t.Errorf("slot 10: $zero dest rd = %d, want sink %d", code[10].rd, regSink)
	}

	// An eligible A slot blocks fusion: the fused step could not honor an
	// injection scheduled between the two halves.
	mask := make([]bool, len(text))
	mask[0] = true
	masked := compile(text, mask, nil)
	if masked[0].kind != uint8(isa.LUI) {
		t.Errorf("eligible A slot still fused: kind %d", masked[0].kind)
	}
	if masked[2].kind != kAddiLw {
		t.Errorf("ineligible pair lost fusion under mask: kind %d", masked[2].kind)
	}
	// A fused pair retires with the B half's eligibility and injection dest.
	bmask := make([]bool, len(text))
	bmask[1] = true
	bm := compile(text, bmask, nil)
	if bm[0].kind != kLuiOri || bm[0].elig != eligFlag {
		t.Errorf("fused pair did not take B's eligibility: kind %d elig %#x", bm[0].kind, bm[0].elig)
	}
	// ...and B's mark; marks on ineligible slots are dropped.
	mark := make([]bool, len(text))
	mark[1], mark[2] = true, true
	mk := compile(text, bmask, mark)
	if mk[0].kind != kLuiOri || mk[0].elig != eligFlag|eligMarked || mk[1].elig != eligFlag|eligMarked {
		t.Errorf("fused pair did not take B's mark: elig %#x / %#x", mk[0].elig, mk[1].elig)
	}
	if mk[2].elig != 0 {
		t.Errorf("ineligible marked slot carries flags %#x", mk[2].elig)
	}
	if bm[0].dst != 9 {
		t.Errorf("fused pair dst = %d, want B's dest 9", bm[0].dst)
	}
}

// TestEnginePrograms asserts the differential corpus actually contains
// fused superinstructions — otherwise the equivalence tests would pass
// vacuously on unfused streams.
func TestEngineProgramsContainFusions(t *testing.T) {
	seen := map[uint8]bool{}
	for _, tc := range enginePrograms {
		p := mustAssemble(t, tc.src)
		for _, d := range compile(p.Text, nil, nil) {
			if d.kind >= uint8(isa.NumOps) {
				seen[d.kind] = true
			}
		}
	}
	for k, name := range map[uint8]string{
		kLuiOri: "lui+ori", kAddiLw: "addi+lw", kAddiSw: "addi+sw",
		kSltBne: "slt+bne", kSltuBeq: "sltu+beq",
	} {
		if !seen[k] {
			t.Errorf("no program in the corpus compiles a %s superinstruction", name)
		}
	}
}
