// The predecoded execution engine: the dispatch half of predecode.go.
// runEngine retires dinstr slots instead of raw isa.Instr, so the per-step
// cost drops to one bounds check, one budget check, and one switch on a
// dense byte — class resolution, destination extraction and eligibility
// all happened at compile time. It is the only production interpreter:
// plain runs, checkpoint-resumed trials and the golden pass (Record) all
// retire through it. A per-step reference interpreter lives with the tests
// and is pinned bit-identical to it by engine_test.go,
// engine_diff_test.go, record_test.go and FuzzEngineEquivalence.
//
// Invariants a machine entering runEngine must satisfy: it came from the
// one machine setup (Runner.start), so its MemSize is page-aligned and its
// page tables cover the fast region, and a stream carrying eligMarked
// slots runs only under Record, which collects the marks. The loop stops
// exactly at cfg.MaxInstr — between the two halves of a fused pair if
// need be — and leaves the machine resumable there, which is what lets
// Record run it in checkpoint-bounded segments.
package sim

import (
	"encoding/binary"

	"etap/internal/isa"
)

//etap:hotpath
func (m *machine) runEngine(code []dinstr) {
	r := &m.regs
	max := m.cfg.MaxInstr
	// The retirement counters live in locals for the whole run — they are
	// incremented every step, and keeping them out of the machine struct
	// saves the load/store traffic. The deferred flush runs on every exit
	// path before the caller reads them back out of the machine.
	instret := m.instret
	eligCount := m.eligCount
	injected := m.injected
	injections := m.injections
	// cc is oversized to 8 so the cc[cls&7] increment needs no bounds
	// check; only the first 6 slots (the real classes) are flushed back.
	var cc [8]uint64
	copy(cc[:], m.classCounts[:])
	defer func() {
		m.instret = instret
		m.eligCount = eligCount
		m.injected = injected
		copy(m.classCounts[:], cc[:len(m.classCounts)])
	}()
	// nextAt is the eligible-stream ordinal of the next scheduled flip
	// (MaxUint64 when none remain), so the per-eligible-step check is one
	// register compare instead of a slice load.
	nextAt := uint64(1<<64 - 1)
	if injected < len(injections) {
		nextAt = injections[injected].At
	}
	// pc stays in a local for the whole run; m.pc is written back only on
	// the exit paths and before operations that can fault or observe it
	// (trap attribution reads m.pc). Every path that ends the run (fault,
	// exit syscall, trapdet, budget) returns directly, so the loop itself
	// needs no termination check.
	pc := m.pc
	for {
		if uint(pc) >= uint(len(code)) {
			m.faultAt(TrapBadPC, pc, uint32(pc))
			return
		}
		if instret >= max {
			m.pc = pc
			m.outcome = Timeout
			return
		}
		d := &code[pc]
		instret++
		cc[d.cls&7]++
		next := pc + 1

		switch d.kind {
		case uint8(isa.NOP):
		case uint8(isa.ADD):
			r[d.rd] = uint32(int32(r[d.rs]) + int32(r[d.rt]))
		case uint8(isa.SUB):
			r[d.rd] = uint32(int32(r[d.rs]) - int32(r[d.rt]))
		case uint8(isa.MUL):
			r[d.rd] = uint32(int32(r[d.rs]) * int32(r[d.rt]))
		case uint8(isa.DIV):
			if r[d.rt] == 0 {
				m.faultAt(TrapDivZero, pc, 0)
				return
			}
			r[d.rd] = uint32(sdiv(int32(r[d.rs]), int32(r[d.rt])))
		case uint8(isa.REM):
			if r[d.rt] == 0 {
				m.faultAt(TrapDivZero, pc, 0)
				return
			}
			r[d.rd] = uint32(srem(int32(r[d.rs]), int32(r[d.rt])))
		case uint8(isa.AND):
			r[d.rd] = r[d.rs] & r[d.rt]
		case uint8(isa.OR):
			r[d.rd] = r[d.rs] | r[d.rt]
		case uint8(isa.XOR):
			r[d.rd] = r[d.rs] ^ r[d.rt]
		case uint8(isa.NOR):
			r[d.rd] = ^(r[d.rs] | r[d.rt])
		case uint8(isa.SLLV):
			r[d.rd] = r[d.rs] << (r[d.rt] & 31)
		case uint8(isa.SRLV):
			r[d.rd] = r[d.rs] >> (r[d.rt] & 31)
		case uint8(isa.SRAV):
			r[d.rd] = uint32(int32(r[d.rs]) >> (r[d.rt] & 31))
		case uint8(isa.SLT):
			r[d.rd] = b2u(int32(r[d.rs]) < int32(r[d.rt]))
		case uint8(isa.SLTU):
			r[d.rd] = b2u(r[d.rs] < r[d.rt])

		case uint8(isa.ADDI):
			r[d.rd] = uint32(int32(r[d.rs]) + d.imm)
		case uint8(isa.ANDI):
			r[d.rd] = r[d.rs] & uint32(d.imm)
		case uint8(isa.ORI):
			r[d.rd] = r[d.rs] | uint32(d.imm)
		case uint8(isa.XORI):
			r[d.rd] = r[d.rs] ^ uint32(d.imm)
		case uint8(isa.SLL):
			r[d.rd] = r[d.rs] << (uint32(d.imm) & 31)
		case uint8(isa.SRL):
			r[d.rd] = r[d.rs] >> (uint32(d.imm) & 31)
		case uint8(isa.SRA):
			r[d.rd] = uint32(int32(r[d.rs]) >> (uint32(d.imm) & 31))
		case uint8(isa.SLTI):
			r[d.rd] = b2u(int32(r[d.rs]) < d.imm)
		case uint8(isa.LUI):
			r[d.rd] = uint32(d.imm) << 16

		case uint8(isa.ADDF):
			r[d.rd] = bits(f32(r[d.rs]) + f32(r[d.rt]))
		case uint8(isa.SUBF):
			r[d.rd] = bits(f32(r[d.rs]) - f32(r[d.rt]))
		case uint8(isa.MULF):
			r[d.rd] = bits(f32(r[d.rs]) * f32(r[d.rt]))
		case uint8(isa.DIVF):
			r[d.rd] = bits(f32(r[d.rs]) / f32(r[d.rt]))
		case uint8(isa.CVTIF):
			r[d.rd] = bits(float32(int32(r[d.rs])))
		case uint8(isa.CVTFI):
			r[d.rd] = uint32(f2i(f32(r[d.rs])))
		case uint8(isa.CEQF):
			r[d.rd] = b2u(f32(r[d.rs]) == f32(r[d.rt]))
		case uint8(isa.CLTF):
			r[d.rd] = b2u(f32(r[d.rs]) < f32(r[d.rt]))
		case uint8(isa.CLEF):
			r[d.rd] = b2u(f32(r[d.rs]) <= f32(r[d.rt]))

		case uint8(isa.LW):
			v, ok := m.load32(uint32(int32(r[d.rs])+d.imm), pc)
			if !ok {
				return
			}
			r[d.rd] = v
		case uint8(isa.LH):
			v, ok := m.load16(uint32(int32(r[d.rs])+d.imm), pc)
			if !ok {
				return
			}
			r[d.rd] = uint32(int32(int16(v)))
		case uint8(isa.LHU):
			v, ok := m.load16(uint32(int32(r[d.rs])+d.imm), pc)
			if !ok {
				return
			}
			r[d.rd] = v
		case uint8(isa.LB):
			v, ok := m.load8(uint32(int32(r[d.rs])+d.imm), pc)
			if !ok {
				return
			}
			r[d.rd] = uint32(int32(int8(v)))
		case uint8(isa.LBU):
			v, ok := m.load8(uint32(int32(r[d.rs])+d.imm), pc)
			if !ok {
				return
			}
			r[d.rd] = v
		case uint8(isa.SW):
			if !m.store32(uint32(int32(r[d.rs])+d.imm), r[d.rt], pc) {
				return
			}
		case uint8(isa.SH):
			if !m.store16(uint32(int32(r[d.rs])+d.imm), r[d.rt], pc) {
				return
			}
		case uint8(isa.SB):
			if !m.store8(uint32(int32(r[d.rs])+d.imm), r[d.rt], pc) {
				return
			}

		case uint8(isa.BEQ):
			if r[d.rs] == r[d.rt] {
				next = int(d.imm)
			}
		case uint8(isa.BNE):
			if r[d.rs] != r[d.rt] {
				next = int(d.imm)
			}
		case uint8(isa.BLEZ):
			if int32(r[d.rs]) <= 0 {
				next = int(d.imm)
			}
		case uint8(isa.BGTZ):
			if int32(r[d.rs]) > 0 {
				next = int(d.imm)
			}
		case uint8(isa.BLTZ):
			if int32(r[d.rs]) < 0 {
				next = int(d.imm)
			}
		case uint8(isa.BGEZ):
			if int32(r[d.rs]) >= 0 {
				next = int(d.imm)
			}
		case uint8(isa.J):
			next = int(d.imm)
		case uint8(isa.JAL):
			r[d.rd] = isa.TextBase + uint32(pc+1)
			next = int(d.imm)
		case uint8(isa.JR):
			next = codeIdx(r[d.rs])
		case uint8(isa.JALR):
			// Link writes before the target read, as in the reference, so
			// jalr rd,rs with rd == rs jumps to the link address.
			r[d.rd] = isa.TextBase + uint32(pc+1)
			next = codeIdx(r[d.rs])

		case uint8(isa.SYSCALL):
			m.pc = pc
			if !m.syscall() {
				return
			}

		case uint8(isa.TRAPDET):
			m.pc = pc
			m.outcome = Detected
			return

		// Fused superinstructions. Each retires two reference steps: the
		// A half executes, then the budget gate re-runs exactly where the
		// reference would have stopped between the two, then the B half
		// executes and the shared post-retire check below applies B's
		// eligibility and injection destination (A's slot is never
		// eligible — compile() refuses to fuse it otherwise). Fused memory
		// halves point m.pc at B's slot first so traps attribute to it.
		case kLuiOri:
			v := uint32(d.imm) << 16
			r[d.rd] = v
			if instret >= max {
				m.pc = pc + 1
				m.outcome = Timeout
				return
			}
			instret++
			cc[isa.ClassArith]++
			r[d.rd2] = v | uint32(d.imm2)
			next = pc + 2
		case kAddiLw:
			a := uint32(int32(r[d.rs]) + d.imm)
			r[d.rd] = a
			if instret >= max {
				m.pc = pc + 1
				m.outcome = Timeout
				return
			}
			instret++
			cc[isa.ClassLoad]++
			v, ok := m.load32(uint32(int32(a)+d.imm2), pc+1)
			if !ok {
				return
			}
			r[d.rd2] = v
			next = pc + 2
		case kAddiSw:
			a := uint32(int32(r[d.rs]) + d.imm)
			r[d.rd] = a
			if instret >= max {
				m.pc = pc + 1
				m.outcome = Timeout
				return
			}
			instret++
			cc[isa.ClassStore]++
			if !m.store32(uint32(int32(a)+d.imm2), r[d.rt], pc+1) {
				return
			}
			next = pc + 2
		case kSltBeq, kSltBne, kSltuBeq, kSltuBne:
			var c uint32
			if d.kind == kSltBeq || d.kind == kSltBne {
				c = b2u(int32(r[d.rs]) < int32(r[d.rt]))
			} else {
				c = b2u(r[d.rs] < r[d.rt])
			}
			r[d.rd] = c
			if instret >= max {
				m.pc = pc + 1
				m.outcome = Timeout
				return
			}
			instret++
			cc[isa.ClassControl]++
			taken := c == 0
			if d.kind == kSltBne || d.kind == kSltuBne {
				taken = !taken
			}
			if taken {
				next = int(d.imm2)
			} else {
				next = pc + 2
			}
		}

		// Post-retire fault accounting, mirroring the reference loop's
		// mask check with the eligibility bit folded into the slot. Only
		// the golden pass's stream carries eligMarked.
		if d.elig != 0 {
			eligCount++
			if d.elig&eligMarked != 0 {
				m.mark(eligCount)
			}
			if eligCount == nextAt {
				bit := injections[injected].Bit & 31
				if d.dst != noDest {
					r[d.dst] ^= 1 << bit
				}
				if injected == 0 {
					m.firstInjInstret = instret
				}
				injected++
				nextAt = 1<<64 - 1
				if injected < len(injections) {
					nextAt = injections[injected].At
				}
			}
		}

		pc = next
	}
}

// mark records that eligible-stream ordinal o (1-based) retired at a
// marked site, growing the golden pass's bitmap as the stream does.
func (m *machine) mark(o uint64) {
	w := int((o - 1) >> 6)
	for len(m.marks) <= w {
		m.marks = append(m.marks, 0)
	}
	m.marks[w] |= 1 << ((o - 1) & 63)
}

// Per-size memory helpers: the engine's counterparts of machine.load and
// machine.store with the size switch resolved at compile time and the
// fast-region paths inlined. MemSize is page-aligned, so an aligned
// access that starts inside the fast region ends there on the same page,
// and the fast path is a single table lookup: pageTab for loads, wrTab
// for stores (hit only once the page is private). Everything else —
// sparse addresses, copy-on-write faults, page-limit accounting — falls
// through to machine.load and machine.store, which the reference
// interpreter shares, so those semantics cannot drift.

//etap:hotpath
func (m *machine) load32(addr uint32, pc int) (uint32, bool) {
	if addr&3 != 0 {
		m.faultAt(TrapMemAlign, pc, addr)
		return 0, false
	}
	if addr < m.memSize {
		pg := m.pageTab[addr>>pageShift]
		if pg == nil {
			return 0, true
		}
		return binary.LittleEndian.Uint32(pg[addr&(pageSize-1):]), true
	}
	m.pc = pc
	return m.load(addr, 4)
}

//etap:hotpath
func (m *machine) load16(addr uint32, pc int) (uint32, bool) {
	if addr&1 != 0 {
		m.faultAt(TrapMemAlign, pc, addr)
		return 0, false
	}
	if addr < m.memSize {
		pg := m.pageTab[addr>>pageShift]
		if pg == nil {
			return 0, true
		}
		return uint32(binary.LittleEndian.Uint16(pg[addr&(pageSize-1):])), true
	}
	m.pc = pc
	return m.load(addr, 2)
}

//etap:hotpath
func (m *machine) load8(addr uint32, pc int) (uint32, bool) {
	if addr < m.memSize {
		pg := m.pageTab[addr>>pageShift]
		if pg == nil {
			return 0, true
		}
		return uint32(pg[addr&(pageSize-1)]), true
	}
	m.pc = pc
	return m.load(addr, 1)
}

//etap:hotpath
func (m *machine) store32(addr, val uint32, pc int) bool {
	if addr&3 != 0 {
		m.faultAt(TrapMemAlign, pc, addr)
		return false
	}
	if addr < m.memSize {
		if pg := m.wrTab[addr>>pageShift]; pg != nil {
			binary.LittleEndian.PutUint32(pg[addr&(pageSize-1):], val)
			return true
		}
	}
	m.pc = pc
	return m.store(addr, 4, val)
}

//etap:hotpath
func (m *machine) store16(addr, val uint32, pc int) bool {
	if addr&1 != 0 {
		m.faultAt(TrapMemAlign, pc, addr)
		return false
	}
	if addr < m.memSize {
		if pg := m.wrTab[addr>>pageShift]; pg != nil {
			binary.LittleEndian.PutUint16(pg[addr&(pageSize-1):], uint16(val))
			return true
		}
	}
	m.pc = pc
	return m.store(addr, 2, val)
}

//etap:hotpath
func (m *machine) store8(addr, val uint32, pc int) bool {
	if addr < m.memSize {
		if pg := m.wrTab[addr>>pageShift]; pg != nil {
			pg[addr&(pageSize-1)] = byte(val)
			return true
		}
	}
	m.pc = pc
	return m.store(addr, 1, val)
}
