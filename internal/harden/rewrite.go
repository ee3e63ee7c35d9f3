package harden

import (
	"fmt"

	"etap/internal/core"
	"etap/internal/isa"
)

// rewriter performs the single forward pass over the original program.
// Each original instruction expands to [checks] [shadow compute | mirror]
// primary [refresh | mirror], and each basic block optionally gains a
// signature prologue. Branch targets are emitted in original text indices
// and remapped to the start of the target block's emitted code in a
// fixup pass; inserted branches (check skips) are emitted with final
// indices directly and are excluded from the fixup.
type rewriter struct {
	rep  *core.Report
	p    *isa.Program
	opts Options

	protected []bool // orig: duplicated sites (control-slice arithmetic)
	out       []isa.Instr
	origOf    []int
	newOf     []int       // orig -> primary copy
	expStart  []int       // orig -> start of its expansion
	blockAt   map[int]int // orig block-leader idx -> new idx of block start

	dupSites  int
	checks    int
	sigBlocks int

	trapKinds map[int]CheckKind // hardened trapdet idx -> transform class
}

func (w *rewriter) rewrite() (*Result, error) {
	p := w.p
	w.protected = w.rep.ProtectedSites()
	w.newOf = make([]int, len(p.Text))
	w.expStart = make([]int, len(p.Text))
	w.blockAt = make(map[int]int)
	w.trapKinds = make(map[int]CheckKind)
	newFuncs := make([]isa.FuncInfo, len(p.Funcs))

	if w.opts.Signatures {
		if len(p.Funcs) >= 1<<12 {
			return nil, fmt.Errorf("harden: %d functions exceed the signature space", len(p.Funcs))
		}
		for fi, cfg := range w.rep.CFGs {
			if len(cfg.Blocks) >= 1<<12 {
				return nil, fmt.Errorf("harden: function %d has %d blocks, exceeding the signature space", fi, len(cfg.Blocks))
			}
		}
	}

	for fi, cfg := range w.rep.CFGs {
		f := p.Funcs[fi]
		start := len(w.out)
		for bi, blk := range cfg.Blocks {
			w.blockAt[blk.Start] = len(w.out)
			if blk.Start == p.Entry && w.opts.DupCompare {
				// The simulator seeds $sp at reset without executing an
				// instruction; seed its shadow the same way so the first
				// address check does not trip on pristine state. Every
				// other register resets to zero, matching its never-written
				// shadow slot.
				w.refresh(isa.RegSP)
			}
			if w.opts.Signatures {
				w.sigPrologue(fi, bi, blk)
			}
			for idx := blk.Start; idx < blk.End; idx++ {
				w.instr(idx)
			}
		}
		newFuncs[fi] = isa.FuncInfo{Name: f.Name, Start: start, End: len(w.out), Tolerant: f.Tolerant}
	}

	// Remap copied branch and jump targets onto the rewritten layout.
	// Every target is a block leader (the CFG builder guarantees it), so
	// the jump lands on the block's signature check, not past it.
	for i := range w.out {
		if w.origOf[i] < 0 {
			continue
		}
		switch w.out[i].Op {
		case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ, isa.J, isa.JAL:
			ns, ok := w.blockAt[int(w.out[i].Imm)]
			if !ok {
				return nil, fmt.Errorf("harden: instr %d targets %d, which is not a block leader",
					w.origOf[i], w.out[i].Imm)
			}
			w.out[i].Imm = int32(ns)
		}
	}

	newSyms := make(map[string]int, len(p.Symbols))
	for name, idx := range p.Symbols {
		if ns, ok := w.blockAt[idx]; ok {
			newSyms[name] = ns
		} else {
			newSyms[name] = w.expStart[idx]
		}
	}

	entry, ok := w.blockAt[p.Entry]
	if !ok {
		return nil, fmt.Errorf("harden: entry %d is not a block leader", p.Entry)
	}
	hardened := &isa.Program{
		Text:     w.out,
		Data:     p.Data,
		Symbols:  newSyms,
		DataSyms: p.DataSyms,
		Funcs:    newFuncs,
		Entry:    entry,
	}
	res := &Result{
		Prog:             hardened,
		Orig:             p,
		Policy:           w.rep.Policy,
		Opts:             w.opts,
		OrigOf:           w.origOf,
		NewOf:            w.newOf,
		PrimaryProtected: make([]bool, len(w.out)),
		DupSites:         w.dupSites,
		Checks:           w.checks,
		SigBlocks:        w.sigBlocks,
		TrapKinds:        w.trapKinds,
	}
	for origIdx, prot := range w.protected {
		if prot {
			res.PrimaryProtected[w.newOf[origIdx]] = true
		}
	}
	return res, nil
}

func (w *rewriter) emit(in isa.Instr, orig int) {
	w.out = append(w.out, in)
	w.origOf = append(w.origOf, orig)
}

func shadowAddr(r isa.Reg) int32 { return int32(ShadowBase) + 4*int32(r) }

// loadShadow emits k = shadow(r).
func (w *rewriter) loadShadow(k, r isa.Reg) {
	w.emit(isa.Instr{Op: isa.LW, Rd: k, Rs: isa.RegZero, Imm: shadowAddr(r)}, -1)
}

// storeShadow emits shadow(r) = k.
func (w *rewriter) storeShadow(r, k isa.Reg) {
	w.emit(isa.Instr{Op: isa.SW, Rt: k, Rs: isa.RegZero, Imm: shadowAddr(r)}, -1)
}

// refresh emits shadow(r) = r, re-synchronizing the shadow after a
// definition the transform does not duplicate (loads from non-stack
// memory, untagged arithmetic, syscall results). A fault that reaches r
// through such a definition is copied into the shadow and escapes
// detection — the realized counterpart of the paper's §5.1 memory hole.
func (w *rewriter) refresh(r isa.Reg) {
	if r != isa.RegZero {
		w.storeShadow(r, r)
	}
}

// check emits the compare-against-shadow sequence for one register:
//
//	lw   $k0, shadow(r)
//	beq  $k0, r, +2
//	trapdet
func (w *rewriter) check(r isa.Reg) {
	if r == isa.RegZero {
		return
	}
	w.loadShadow(isa.RegK0, r)
	w.emit(isa.Instr{Op: isa.BEQ, Rs: isa.RegK0, Rt: r, Imm: int32(len(w.out) + 2)}, -1)
	w.trapKinds[len(w.out)] = CheckDup
	w.emit(isa.Instr{Op: isa.TRAPDET}, -1)
	w.checks++
}

func isStackBase(r isa.Reg) bool { return r == isa.RegSP || r == isa.RegFP }

// checksFor emits the policy-dependent compare set for one original
// instruction, before the instruction itself runs: branch inputs,
// indirect-jump targets, divisors and syscall arguments are always
// control; memory-address bases join under PolicyControlAddr and stored
// values under PolicyConservative, mirroring core's transfer function.
func (w *rewriter) checksFor(in isa.Instr) {
	var regs [3]isa.Reg
	n := 0
	add := func(r isa.Reg) {
		for i := 0; i < n; i++ {
			if regs[i] == r {
				return
			}
		}
		regs[n] = r
		n++
	}
	switch in.Op {
	case isa.DIV, isa.REM:
		add(in.Rt)
	case isa.BEQ, isa.BNE:
		add(in.Rs)
		add(in.Rt)
	case isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ:
		add(in.Rs)
	case isa.JR, isa.JALR:
		add(in.Rs)
	case isa.SYSCALL:
		add(isa.RegV0)
		add(isa.RegA0)
		add(isa.RegA1)
	}
	switch in.Class() {
	case isa.ClassLoad:
		if w.rep.Policy >= core.PolicyControlAddr {
			add(in.Rs)
		}
	case isa.ClassStore:
		if w.rep.Policy >= core.PolicyControlAddr {
			add(in.Rs)
		}
		if w.rep.Policy >= core.PolicyConservative {
			add(in.Rt)
		}
	}
	for i := 0; i < n; i++ {
		w.check(regs[i])
	}
}

// shadowCompute emits the duplicate of a protected arithmetic
// instruction: the same operation over shadow sources, landing in the
// shadow of the destination. It runs before the primary so an injection
// at the primary (which strikes after writeback) cannot leak into the
// shadow.
func (w *rewriter) shadowCompute(in isa.Instr) {
	switch isa.Format(in.Op) {
	case isa.Fmt3R:
		w.loadShadow(isa.RegK0, in.Rs)
		w.loadShadow(isa.RegK1, in.Rt)
		w.emit(isa.Instr{Op: in.Op, Rd: isa.RegK0, Rs: isa.RegK0, Rt: isa.RegK1}, -1)
	case isa.Fmt2RI:
		w.loadShadow(isa.RegK0, in.Rs)
		w.emit(isa.Instr{Op: in.Op, Rd: isa.RegK0, Rs: isa.RegK0, Imm: in.Imm}, -1)
	case isa.FmtRI: // lui
		w.emit(isa.Instr{Op: in.Op, Rd: isa.RegK0, Imm: in.Imm}, -1)
	case isa.Fmt2R: // cvtif, cvtfi
		w.loadShadow(isa.RegK0, in.Rs)
		w.emit(isa.Instr{Op: in.Op, Rd: isa.RegK0, Rs: isa.RegK0}, -1)
	}
	w.storeShadow(in.Rd, isa.RegK0)
	w.dupSites++
}

// instr expands one original instruction.
func (w *rewriter) instr(idx int) {
	in := w.p.Text[idx]
	w.expStart[idx] = len(w.out)
	if !w.opts.DupCompare {
		w.primary(in, idx)
		return
	}
	w.checksFor(in)

	switch {
	case w.protected[idx]:
		w.shadowCompute(in)
		w.primary(in, idx)

	case in.Class() == isa.ClassLoad && isStackBase(in.Rs) && in.Rd != isa.RegZero:
		// Stack reload: refill the shadow from the shadow stack so a
		// corrupted value that was spilled stays detectable. The mirror
		// load runs first because the primary may clobber its own base
		// (the epilogue's lw $fp, -8($fp)).
		w.emit(isa.Instr{Op: in.Op, Rd: isa.RegK0, Rs: in.Rs, Imm: in.Imm - ShadowStackGap}, -1)
		w.storeShadow(in.Rd, isa.RegK0)
		w.primary(in, idx)

	case in.Class() == isa.ClassLoad:
		w.primary(in, idx)
		w.refresh(in.Rd)

	case in.Class() == isa.ClassStore && isStackBase(in.Rs):
		// Stack spill: mirror the shadow of the stored register into the
		// shadow stack at the same frame offset.
		w.primary(in, idx)
		w.loadShadow(isa.RegK0, in.Rt)
		w.emit(isa.Instr{Op: in.Op, Rt: isa.RegK0, Rs: in.Rs, Imm: in.Imm - ShadowStackGap}, -1)

	case in.Op == isa.JAL:
		// The link register is written by the jump itself; seed its
		// shadow with the (compile-time-known) return address first.
		ret := int32(isa.TextBase) + int32(len(w.out)+3)
		w.emit(isa.Instr{Op: isa.ADDI, Rd: isa.RegK0, Rs: isa.RegZero, Imm: ret}, -1)
		w.storeShadow(isa.RegRA, isa.RegK0)
		w.primary(in, idx)

	case in.Op == isa.JALR:
		ret := int32(isa.TextBase) + int32(len(w.out)+3)
		w.emit(isa.Instr{Op: isa.ADDI, Rd: isa.RegK0, Rs: isa.RegZero, Imm: ret}, -1)
		w.storeShadow(in.Rd, isa.RegK0)
		w.primary(in, idx)

	case in.Op == isa.SYSCALL:
		w.primary(in, idx)
		w.refresh(isa.RegV0)

	case in.Class() == isa.ClassArith:
		w.primary(in, idx)
		w.refresh(in.Rd)

	default: // nop, branches, j, jr
		w.primary(in, idx)
	}
}

func (w *rewriter) primary(in isa.Instr, orig int) {
	w.newOf[orig] = len(w.out)
	w.emit(in, orig)
}

// sigOf is the compile-time signature of block bi of function fi.
func sigOf(fi, bi int) int32 { return 0x51<<24 | int32(fi)<<12 | int32(bi) }

// sigPrologue emits the control-flow signature code at a block entry.
// Blocks with intra-procedural predecessors check that the signature
// word holds a legal predecessor's signature before installing their
// own; function entries and call continuations re-synchronize without a
// check (the signature chain is intra-procedural, see docs/HARDEN.md).
func (w *rewriter) sigPrologue(fi, bi int, blk core.Block) {
	w.sigBlocks++
	if bi == 0 || blk.CallCont || len(blk.Preds) == 0 {
		w.emit(isa.Instr{Op: isa.ADDI, Rd: isa.RegK0, Rs: isa.RegZero, Imm: sigOf(fi, bi)}, -1)
		w.emit(isa.Instr{Op: isa.SW, Rt: isa.RegK0, Rs: isa.RegZero, Imm: int32(SigAddr)}, -1)
		return
	}
	// lw k0, SIG; (addi k1, sig_p; beq k0, k1, ok)*; trapdet; ok: ...
	ok := len(w.out) + 1 + 2*len(blk.Preds) + 1
	w.emit(isa.Instr{Op: isa.LW, Rd: isa.RegK0, Rs: isa.RegZero, Imm: int32(SigAddr)}, -1)
	for _, p := range blk.Preds {
		w.emit(isa.Instr{Op: isa.ADDI, Rd: isa.RegK1, Rs: isa.RegZero, Imm: sigOf(fi, p)}, -1)
		w.emit(isa.Instr{Op: isa.BEQ, Rs: isa.RegK0, Rt: isa.RegK1, Imm: int32(ok)}, -1)
	}
	w.trapKinds[len(w.out)] = CheckCFS
	w.emit(isa.Instr{Op: isa.TRAPDET}, -1)
	w.emit(isa.Instr{Op: isa.ADDI, Rd: isa.RegK0, Rs: isa.RegZero, Imm: sigOf(fi, bi)}, -1)
	w.emit(isa.Instr{Op: isa.SW, Rt: isa.RegK0, Rs: isa.RegZero, Imm: int32(SigAddr)}, -1)
}
