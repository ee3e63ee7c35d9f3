// Package core implements the paper's primary contribution: the static
// analysis of Section 3 that identifies, at the assembly level, which
// arithmetic instructions cannot influence a control-flow decision and may
// therefore run on low-reliability hardware (equivalently: are eligible for
// fault injection while the rest is protected).
//
// The analysis maintains CVar, the set of registers "likely to influence
// control flow", walking each basic block backward from its exit:
//
//   - control instructions (branches, indirect jumps, syscalls) add the
//     registers they read to CVar;
//   - an instruction that defines a register in CVar removes the defined
//     register and adds the registers used in the definition — this applies
//     uniformly to ALU instructions and loads (a load's "use" is its address
//     base register, matching the paper's worked example where an absolute
//     load empties the set);
//   - an arithmetic instruction whose destination is not in CVar is tagged
//     low-reliability.
//
// The analysis is inter-procedural via function summaries: which argument
// registers are control-live at a callee's entry, and whether any caller
// consumes the callee's return value for control. Memory is untracked —
// the paper's acknowledged soundness hole ("we perform no memory
// disambiguation", §5.1) — except under PolicyConservative.
package core

import (
	"fmt"

	"etap/internal/isa"
)

// Block is a basic block: the half-open instruction range [Start, End)
// within one function.
type Block struct {
	Start, End int
	// Succs are block IDs within the same function.
	Succs []int
	// Preds are the blocks listing this one among their Succs,
	// deduplicated and in ascending block order.
	Preds []int
	// CallCont marks a call continuation: some predecessor ends in a call
	// (jal or jalr), so control reaches the block through a callee's
	// return.
	CallCont bool
	// Return marks a function exit: a block ending in jr, or one that
	// falls off the end of the function.
	Return bool
}

// FuncCFG is the control-flow graph of one function.
type FuncCFG struct {
	Func   isa.FuncInfo
	FuncID int
	Blocks []Block
	// blockAt maps absolute instruction index to block ID.
	blockAt map[int]int
}

// BlockAt returns the block ID containing absolute instruction index idx.
func (c *FuncCFG) BlockAt(idx int) (int, bool) {
	b, ok := c.blockAt[idx]
	return b, ok
}

// BuildCFG constructs per-function CFGs for a validated program. It rejects
// control flow the rest of the toolchain never produces: branches that
// leave their function, calls that target a non-entry instruction, and
// calls in a function's final slot.
func BuildCFG(p *isa.Program) ([]*FuncCFG, error) {
	entryToFunc := make(map[int]int, len(p.Funcs))
	for fi, f := range p.Funcs {
		entryToFunc[f.Start] = fi
	}

	cfgs := make([]*FuncCFG, len(p.Funcs))
	for fi, f := range p.Funcs {
		cfg, err := buildFuncCFG(p, f, fi, entryToFunc)
		if err != nil {
			return nil, err
		}
		cfgs[fi] = cfg
	}
	return cfgs, nil
}

func buildFuncCFG(p *isa.Program, f isa.FuncInfo, fi int, entryToFunc map[int]int) (*FuncCFG, error) {
	inFunc := func(idx int) bool { return idx >= f.Start && idx < f.End }

	leaders := map[int]bool{f.Start: true}
	for idx := f.Start; idx < f.End; idx++ {
		in := p.Text[idx]
		if in.Class() != isa.ClassControl {
			continue
		}
		if idx+1 < f.End {
			leaders[idx+1] = true
		}
		switch in.Op {
		case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ, isa.J:
			t := int(in.Imm)
			if !inFunc(t) {
				return nil, fmt.Errorf("core: %s: instr %d (%s) targets %d outside function [%d,%d)",
					f.Name, idx, isa.Disasm(in), t, f.Start, f.End)
			}
			leaders[t] = true
		case isa.JAL:
			t := int(in.Imm)
			if _, ok := entryToFunc[t]; !ok {
				return nil, fmt.Errorf("core: %s: instr %d calls %d, which is not a function entry", f.Name, idx, t)
			}
			if idx+1 >= f.End {
				return nil, fmt.Errorf("core: %s: call in final slot of function", f.Name)
			}
		}
	}

	cfg := &FuncCFG{Func: f, FuncID: fi, blockAt: make(map[int]int)}
	start := f.Start
	for idx := f.Start; idx <= f.End; idx++ {
		atBoundary := idx == f.End || (idx > start && leaders[idx])
		if !atBoundary {
			continue
		}
		cfg.Blocks = append(cfg.Blocks, Block{Start: start, End: idx})
		start = idx
	}
	for bi, b := range cfg.Blocks {
		for idx := b.Start; idx < b.End; idx++ {
			cfg.blockAt[idx] = bi
		}
	}

	for bi := range cfg.Blocks {
		b := &cfg.Blocks[bi]
		last := p.Text[b.End-1]
		addSucc := func(idx int) {
			b.Succs = append(b.Succs, cfg.blockAt[idx])
		}
		switch last.Op {
		case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ:
			addSucc(int(last.Imm))
			if b.End < f.End {
				addSucc(b.End)
			} else {
				b.Return = true
			}
		case isa.J:
			addSucc(int(last.Imm))
		case isa.JR, isa.JALR:
			// jr is a return; jalr (never emitted by the compiler) is an
			// indirect call whose continuation is the next instruction.
			if last.Op == isa.JALR && b.End < f.End {
				addSucc(b.End)
			} else {
				b.Return = true
			}
		default:
			if b.End < f.End {
				addSucc(b.End)
			} else {
				// Falling off the end of the function: treated as a return
				// so hand-written test programs that end in a bare exit
				// syscall analyze cleanly.
				b.Return = true
			}
		}
	}
	for pb, blk := range cfg.Blocks {
		last := p.Text[blk.End-1]
		for _, s := range blk.Succs {
			sb := &cfg.Blocks[s]
			// Blocks are visited in ascending order, so a duplicate edge
			// can only repeat the last predecessor added.
			if n := len(sb.Preds); n == 0 || sb.Preds[n-1] != pb {
				sb.Preds = append(sb.Preds, pb)
			}
			if last.Op == isa.JAL || last.Op == isa.JALR {
				sb.CallCont = true
			}
		}
	}
	return cfg, nil
}
