package sim

// The reference interpreter: a per-step decode-dispatch switch over isa
// opcodes, the semantic baseline the predecoded engine replaced. It lives
// with the tests as an oracle — engine_test.go, engine_diff_test.go,
// record_test.go and FuzzEngineEquivalence require bit-identical results
// from the engine — and shares the machine's memory, syscall and trap
// helpers with it, so only instruction dispatch and fault accounting are
// implemented twice.

import "etap/internal/isa"

// referenceRun executes the program on the reference interpreter.
func referenceRun(p *isa.Program, cfg Config) Result {
	m, buf := newScratch(p, cfg.normalize())
	m.run(nil)
	res := m.result()
	buf.release()
	return res
}

// run interprets instructions until the program ends or m.cfg.MaxInstr
// retirements. It stops on the budget between two instructions with the
// machine resumable: clearing the Timeout outcome and raising the budget
// continues the same run. visit, when non-nil, receives the text index of
// every retired eligible instruction in eligible-stream order.
func (m *machine) run(visit func(pc int)) {
	var eligible []bool
	if m.cfg.Plan != nil {
		eligible = m.cfg.Plan.Eligible
	}
	for {
		if m.pc < 0 || m.pc >= len(m.text) {
			m.fault(TrapBadPC, uint32(m.pc))
			return
		}
		if m.instret >= m.cfg.MaxInstr {
			m.outcome = Timeout
			return
		}
		in := m.text[m.pc]
		m.instret++
		m.classCounts[in.Class()]++
		next := m.pc + 1
		r := &m.regs

		switch in.Op {
		case isa.NOP:
		case isa.ADD:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])+int32(r[in.Rt])))
		case isa.SUB:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])-int32(r[in.Rt])))
		case isa.MUL:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])*int32(r[in.Rt])))
		case isa.DIV:
			if r[in.Rt] == 0 {
				m.fault(TrapDivZero, 0)
				return
			}
			m.setReg(in.Rd, uint32(sdiv(int32(r[in.Rs]), int32(r[in.Rt]))))
		case isa.REM:
			if r[in.Rt] == 0 {
				m.fault(TrapDivZero, 0)
				return
			}
			m.setReg(in.Rd, uint32(srem(int32(r[in.Rs]), int32(r[in.Rt]))))
		case isa.AND:
			m.setReg(in.Rd, r[in.Rs]&r[in.Rt])
		case isa.OR:
			m.setReg(in.Rd, r[in.Rs]|r[in.Rt])
		case isa.XOR:
			m.setReg(in.Rd, r[in.Rs]^r[in.Rt])
		case isa.NOR:
			m.setReg(in.Rd, ^(r[in.Rs] | r[in.Rt]))
		case isa.SLLV:
			m.setReg(in.Rd, r[in.Rs]<<(r[in.Rt]&31))
		case isa.SRLV:
			m.setReg(in.Rd, r[in.Rs]>>(r[in.Rt]&31))
		case isa.SRAV:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])>>(r[in.Rt]&31)))
		case isa.SLT:
			m.setReg(in.Rd, b2u(int32(r[in.Rs]) < int32(r[in.Rt])))
		case isa.SLTU:
			m.setReg(in.Rd, b2u(r[in.Rs] < r[in.Rt]))

		case isa.ADDI:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])+in.Imm))
		case isa.ANDI:
			m.setReg(in.Rd, r[in.Rs]&uint32(in.Imm))
		case isa.ORI:
			m.setReg(in.Rd, r[in.Rs]|uint32(in.Imm))
		case isa.XORI:
			m.setReg(in.Rd, r[in.Rs]^uint32(in.Imm))
		case isa.SLL:
			m.setReg(in.Rd, r[in.Rs]<<(uint32(in.Imm)&31))
		case isa.SRL:
			m.setReg(in.Rd, r[in.Rs]>>(uint32(in.Imm)&31))
		case isa.SRA:
			m.setReg(in.Rd, uint32(int32(r[in.Rs])>>(uint32(in.Imm)&31)))
		case isa.SLTI:
			m.setReg(in.Rd, b2u(int32(r[in.Rs]) < in.Imm))
		case isa.LUI:
			m.setReg(in.Rd, uint32(in.Imm)<<16)

		case isa.ADDF:
			m.setReg(in.Rd, bits(f32(r[in.Rs])+f32(r[in.Rt])))
		case isa.SUBF:
			m.setReg(in.Rd, bits(f32(r[in.Rs])-f32(r[in.Rt])))
		case isa.MULF:
			m.setReg(in.Rd, bits(f32(r[in.Rs])*f32(r[in.Rt])))
		case isa.DIVF:
			m.setReg(in.Rd, bits(f32(r[in.Rs])/f32(r[in.Rt])))
		case isa.CVTIF:
			m.setReg(in.Rd, bits(float32(int32(r[in.Rs]))))
		case isa.CVTFI:
			m.setReg(in.Rd, uint32(f2i(f32(r[in.Rs]))))
		case isa.CEQF:
			m.setReg(in.Rd, b2u(f32(r[in.Rs]) == f32(r[in.Rt])))
		case isa.CLTF:
			m.setReg(in.Rd, b2u(f32(r[in.Rs]) < f32(r[in.Rt])))
		case isa.CLEF:
			m.setReg(in.Rd, b2u(f32(r[in.Rs]) <= f32(r[in.Rt])))

		case isa.LW:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 4)
			if !ok {
				return
			}
			m.setReg(in.Rd, v)
		case isa.LH:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 2)
			if !ok {
				return
			}
			m.setReg(in.Rd, uint32(int32(int16(v))))
		case isa.LHU:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 2)
			if !ok {
				return
			}
			m.setReg(in.Rd, v)
		case isa.LB:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 1)
			if !ok {
				return
			}
			m.setReg(in.Rd, uint32(int32(int8(v))))
		case isa.LBU:
			v, ok := m.load(uint32(int32(r[in.Rs])+in.Imm), 1)
			if !ok {
				return
			}
			m.setReg(in.Rd, v)
		case isa.SW:
			if !m.store(uint32(int32(r[in.Rs])+in.Imm), 4, r[in.Rt]) {
				return
			}
		case isa.SH:
			if !m.store(uint32(int32(r[in.Rs])+in.Imm), 2, r[in.Rt]) {
				return
			}
		case isa.SB:
			if !m.store(uint32(int32(r[in.Rs])+in.Imm), 1, r[in.Rt]) {
				return
			}

		case isa.BEQ:
			if r[in.Rs] == r[in.Rt] {
				next = int(in.Imm)
			}
		case isa.BNE:
			if r[in.Rs] != r[in.Rt] {
				next = int(in.Imm)
			}
		case isa.BLEZ:
			if int32(r[in.Rs]) <= 0 {
				next = int(in.Imm)
			}
		case isa.BGTZ:
			if int32(r[in.Rs]) > 0 {
				next = int(in.Imm)
			}
		case isa.BLTZ:
			if int32(r[in.Rs]) < 0 {
				next = int(in.Imm)
			}
		case isa.BGEZ:
			if int32(r[in.Rs]) >= 0 {
				next = int(in.Imm)
			}
		case isa.J:
			next = int(in.Imm)
		case isa.JAL:
			m.setReg(isa.RegRA, isa.TextBase+uint32(m.pc+1))
			next = int(in.Imm)
		case isa.JR:
			next = codeIdx(r[in.Rs])
		case isa.JALR:
			m.setReg(in.Rd, isa.TextBase+uint32(m.pc+1))
			next = codeIdx(r[in.Rs])

		case isa.SYSCALL:
			if !m.syscall() {
				return
			}

		case isa.TRAPDET:
			m.outcome = Detected
			return
		}

		// Fault accounting and injection happen after writeback so the
		// flipped bit lands in the committed result.
		if m.pc < len(eligible) && eligible[m.pc] {
			m.eligCount++
			if visit != nil {
				visit(m.pc)
			}
			if m.injected < len(m.injections) && m.eligCount == m.injections[m.injected].At {
				bit := m.injections[m.injected].Bit & 31
				if d, ok := in.Dest(); ok && d != isa.RegZero {
					m.regs[d] ^= 1 << bit
				}
				if m.injected == 0 {
					m.firstInjInstret = m.instret
				}
				m.injected++
			}
		}

		m.pc = next
	}
}
