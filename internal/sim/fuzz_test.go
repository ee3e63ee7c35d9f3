package sim

// FuzzEngineEquivalence feeds random short instruction sequences and random
// injection plans to the predecoded engine and the reference interpreter
// and requires bit-identical Results. The decoder below maps arbitrary
// bytes onto the full opcode space — traps, wild jumps, runaway loops and
// bad syscalls are all fair game, because the two engines must agree on
// those too, down to the trap detail and the instruction count at which
// the run ended.

import (
	"reflect"
	"testing"

	"etap/internal/isa"
)

// fuzzProgram decodes raw bytes into a program: six bytes per instruction,
// opcode and register fields taken modulo their ranges, branch targets
// folded to mostly-in-range text indices (one past the end stays reachable
// so the BadPC edge is exercised).
func fuzzProgram(raw []byte) *isa.Program {
	const instrBytes = 6
	n := len(raw) / instrBytes
	if n == 0 {
		return nil
	}
	if n > 48 {
		n = 48
	}
	text := make([]isa.Instr, n)
	for i := range text {
		b := raw[i*instrBytes:]
		in := isa.Instr{
			Op:  isa.Op(int(b[0]) % isa.NumOps),
			Rd:  isa.Reg(b[1] & 31),
			Rs:  isa.Reg(b[2] & 31),
			Rt:  isa.Reg(b[3] & 31),
			Imm: int32(int16(uint16(b[4]) | uint16(b[5])<<8)),
		}
		if _, ok := in.BranchTarget(); ok {
			in.Imm = int32(int(b[4]) % (n + 2))
		}
		text[i] = in
	}
	return &isa.Program{Text: text}
}

func FuzzEngineEquivalence(f *testing.F) {
	op := func(o isa.Op, rd, rs, rt byte, imm int16) []byte {
		return []byte{byte(o), rd, rs, rt, byte(uint16(imm)), byte(uint16(imm) >> 8)}
	}
	cat := func(chunks ...[]byte) []byte {
		var out []byte
		for _, c := range chunks {
			out = append(out, c...)
		}
		return out
	}
	// Seeds covering each superinstruction shape plus an exit and a loop.
	f.Add(cat(
		op(isa.LUI, 8, 0, 0, 0x1234),
		op(isa.ORI, 9, 8, 0, 0x5678),
		op(isa.ADDI, 10, 29, 0, -8),
		op(isa.SW, 0, 10, 9, 0),
		op(isa.ADDI, 11, 29, 0, -8),
		op(isa.LW, 12, 11, 0, 0),
		op(isa.SLT, 13, 12, 9, 0),
		op(isa.BNE, 0, 13, 0, 0),
	), []byte("in"), uint64(0), uint16(3), uint8(5), uint16(600))
	f.Add(cat(
		op(isa.ADDI, 2, 0, 0, 1), // $v0 = SysExit
		op(isa.TRAPDET, 0, 0, 0, 0),
		op(isa.SYSCALL, 0, 0, 0, 0),
	), []byte{}, ^uint64(0), uint16(1), uint8(31), uint16(50))
	f.Add(cat(
		op(isa.SLTU, 9, 8, 10, 0),
		op(isa.BEQ, 0, 0, 9, 1), // swapped-operand compare-branch
		op(isa.DIV, 11, 8, 9, 0),
		op(isa.JAL, 0, 0, 0, 0),
	), []byte("xyz"), uint64(0xAAAA), uint16(1), uint8(0), uint16(200))

	f.Fuzz(func(t *testing.T, raw []byte, input []byte, maskSeed uint64, at uint16, bit uint8, budget uint16) {
		p := fuzzProgram(raw)
		if p == nil {
			t.Skip()
		}
		cfg := Config{
			// Small bounds keep a hostile random program cheap: 64 KiB fast
			// region, 8 sparse pages, 4 KiB output, a few thousand steps.
			MemSize:   1 << 16,
			MaxPages:  8,
			MaxOutput: 4096,
			MaxInstr:  uint64(budget)%4096 + 1,
			Input:     input,
		}
		run := func(cfg Config) {
			t.Helper()
			got := Run(p, cfg)
			want := ReferenceRun(p, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("engine diverges from reference:\nengine:    %+v\nreference: %+v\nprogram:\n%s",
					got, want, disasmAll(p))
			}
		}
		run(cfg)

		mask := make([]bool, len(p.Text))
		for i := range mask {
			mask[i] = maskSeed>>(uint(i)%64)&1 == 1
		}
		cfg.Plan = &FaultPlan{
			Eligible:   mask,
			Injections: []Injection{{At: uint64(at)%512 + 1, Bit: bit & 31}},
		}
		run(cfg)
	})
}

func disasmAll(p *isa.Program) string {
	s := ""
	for i, in := range p.Text {
		s += isa.Disasm(in) + "\n"
		if i > 60 {
			break
		}
	}
	return s
}
