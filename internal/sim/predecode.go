// Predecoding: the compile-once half of the execution engine. A per-step
// interpreter re-derives everything it needs from isa.Instr on every
// retired instruction — opcode dispatch, Class for the histogram,
// Dest() for injection, and an eligibility triple-check against the
// FaultPlan mask. All of that is static per (program, mask) pair, so
// compile() resolves it once into a dense stream of 16-byte dinstr slots
// the hot loop (engine.go) can dispatch over with no per-step lookups.
//
// On top of the flat predecode, compile() fuses adjacent hot minic idioms
// into superinstructions: LUI+ORI 32-bit constant formation, ADDI+LW/SW
// address formation, and SLT/SLTU+BEQ/BNE compare-and-branch. Fusion never
// rewrites the second slot of a pair, so any jump landing mid-pair still
// finds a valid single-instruction entry, and a pair is only fused when the
// first slot is not eligible for injection and writes a real register —
// the two conditions under which executing the pair as one step is
// observationally identical to two reference steps (see docs/PERF.md).
package sim

import "etap/internal/isa"

// dinstr is one predecoded slot. Register fields are indices into
// machine.regs with $zero destinations redirected to the write sink
// (regSink), so writeback needs no branch. For fused kinds the second op's
// operands live in rd2/imm2 (and rt for the fused store's value register).
type dinstr struct {
	kind uint8 // isa.Op, or a fused k* super-opcode
	rd   uint8 // destination slot of the first op (sink-redirected)
	rs   uint8
	rt   uint8
	rd2  uint8 // fused: destination slot of the second op (sink-redirected)
	dst  uint8 // injection target of the retiring op; noDest when none
	cls  uint8 // isa.Class of the first op
	elig uint8 // retiring slot's eligible/eligMarked flags, folded at compile time
	imm  int32
	imm2 int32 // fused: second immediate, memory offset, or branch target
}

// Fused super-opcodes, allocated above the isa opcode space.
const (
	kLuiOri  = uint8(isa.NumOps) + iota // lui rd,hi  + ori rd2,rd,lo
	kAddiLw                             // addi rd,rs,imm + lw rd2,imm2(rd)
	kAddiSw                             // addi rd,rs,imm + sw rt,imm2(rd)
	kSltBeq                             // slt rd,rs,rt + beq rd,$zero,imm2
	kSltBne                             // slt rd,rs,rt + bne rd,$zero,imm2
	kSltuBeq                            // sltu variant of kSltBeq
	kSltuBne                            // sltu variant of kSltBne
)

// dinstr.elig flags. eligFlag is the FaultPlan mask bit; eligMarked is set
// on eligible slots whose site the golden pass's mark mask marks (Record).
const (
	eligFlag = 1 << iota
	eligMarked
)

// noDest marks a slot whose retiring op writes no injectable register.
const noDest = 0xFF

// regSink is the discard slot for $zero destinations (see machine.regs).
const regSink = uint8(isa.NumRegs)

// rdx maps a destination register to its writeback slot, redirecting the
// hardwired zero register to the sink.
func rdx(r isa.Reg) uint8 {
	if r == isa.RegZero {
		return regSink
	}
	return uint8(r)
}

// compile predecodes text under an eligibility mask (nil or short masks
// leave the uncovered tail ineligible, matching the interpreter's bounds
// check) and a mark mask, which flags eligible slots eligMarked (nil for
// every stream but the golden pass's). The result is immutable and safe to
// share across machines.
func compile(text []isa.Instr, mask, mark []bool) []dinstr {
	elig := func(i int) uint8 {
		if i >= len(mask) || !mask[i] {
			return 0
		}
		if i < len(mark) && mark[i] {
			return eligFlag | eligMarked
		}
		return eligFlag
	}
	code := make([]dinstr, len(text))
	for i := range text {
		in := &text[i]
		d := &code[i]
		d.kind = uint8(in.Op)
		d.cls = uint8(in.Class())
		d.rd = rdx(in.Rd)
		d.rs = uint8(in.Rs)
		d.rt = uint8(in.Rt)
		d.imm = in.Imm
		d.dst = noDest
		if dest, ok := in.Dest(); ok && dest != isa.RegZero {
			d.dst = uint8(dest)
		}
		if in.Op == isa.JAL {
			d.rd = uint8(isa.RegRA)
		}
		d.elig = elig(i)
	}
	// Fusion pass. A pair (A at i, B at i+1) fuses only when A's slot is
	// not eligible (the fused step does one post-retire check, B's) and A
	// writes a real register (the handlers forward A's result to B without
	// re-reading the register file, which would be wrong for $zero). The
	// fused slot retires with B's eligibility and injection destination.
	// code[i+1] is left untouched as a jump-target entry point; entries may
	// overlap (i fused with i+1, i+1 fused with i+2) because every slot
	// remains independently executable.
	for i := 0; i+1 < len(text); i++ {
		a, b := &text[i], &text[i+1]
		if elig(i) != 0 || a.Rd == isa.RegZero {
			continue
		}
		d := &code[i]
		switch {
		case a.Op == isa.LUI && b.Op == isa.ORI && b.Rs == a.Rd:
			d.kind = kLuiOri
			d.rd2 = rdx(b.Rd)
			d.imm2 = b.Imm
		case a.Op == isa.ADDI && b.Op == isa.LW && b.Rs == a.Rd:
			d.kind = kAddiLw
			d.rd2 = rdx(b.Rd)
			d.imm2 = b.Imm
		case a.Op == isa.ADDI && b.Op == isa.SW && b.Rs == a.Rd:
			d.kind = kAddiSw
			d.rt = uint8(b.Rt)
			d.imm2 = b.Imm
		case (a.Op == isa.SLT || a.Op == isa.SLTU) && (b.Op == isa.BEQ || b.Op == isa.BNE) &&
			((b.Rs == a.Rd && b.Rt == isa.RegZero) || (b.Rt == a.Rd && b.Rs == isa.RegZero)):
			target, _ := b.BranchTarget()
			d.imm2 = int32(target)
			switch {
			case a.Op == isa.SLT && b.Op == isa.BEQ:
				d.kind = kSltBeq
			case a.Op == isa.SLT && b.Op == isa.BNE:
				d.kind = kSltBne
			case a.Op == isa.SLTU && b.Op == isa.BEQ:
				d.kind = kSltuBeq
			default:
				d.kind = kSltuBne
			}
		default:
			continue
		}
		d.elig = elig(i + 1)
		d.dst = code[i+1].dst
	}
	return code
}

// sameMask reports whether two eligibility masks are the same slice, by
// identity. Empty masks (nil or zero-length) compare equal to each other.
func sameMask(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}
