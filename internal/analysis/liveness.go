package analysis

import (
	"fmt"

	"etap/internal/core"
	"etap/internal/isa"
)

// LiveInfo is the interprocedural register-liveness result for one
// program: for every instruction, the set of registers whose current
// value may still be read before being overwritten, observed at the
// program point immediately after that instruction retires — the exact
// point where the fault model XORs a bit into the destination register.
//
// The analysis runs backward over the supergraph formed by the
// per-function CFGs plus call and return edges:
//
//   - a block ending in jal flows the callee's entry liveness into the
//     call (a corrupted $ra is caught there: the callee's return needs
//     it), and the call's continuation liveness into the callee's
//     return set;
//   - a block ending in jr uses the function's return set — the union
//     of the continuation liveness of every static call site — which is
//     sound under the toolchain contract that jr only ever returns to
//     the continuation of a call of the containing function;
//   - a Return block whose last instruction is not jr (a terminal exit
//     syscall, or text that falls off the function end) leaves the CFG
//     in a way liveness cannot model, so everything is live there.
//
// Programs containing jalr (an indirect call the compiler never emits)
// make the call graph unknowable statically; for those the analysis
// degrades to the conservative answer: Precise is false and every
// LiveOut set is AllRegs.
type LiveInfo struct {
	Prog *isa.Program
	CFGs []*core.FuncCFG
	// LiveOut[i] is the live set immediately after instruction i retires.
	LiveOut []core.RegMask
	// Precise reports whether the dataflow result is usable for
	// dead-destination reasoning. When false (Imprecision says why),
	// every LiveOut is AllRegs.
	Precise     bool
	Imprecision string
}

// Liveness computes interprocedural register liveness for a validated
// program, as a client of core's Backward solver.
func Liveness(p *isa.Program) (*LiveInfo, error) {
	cfgs, err := core.BuildCFG(p)
	if err != nil {
		return nil, err
	}
	li := &LiveInfo{Prog: p, CFGs: cfgs, LiveOut: make([]core.RegMask, len(p.Text)), Precise: true}
	for idx, in := range p.Text {
		if in.Op == isa.JALR {
			li.Precise = false
			li.Imprecision = fmt.Sprintf("instr %d (%s): indirect call makes the call graph unknowable", idx, isa.Disasm(in))
			for i := range li.LiveOut {
				li.LiveOut[i] = AllRegs
			}
			return li, nil
		}
	}

	var usesBuf [3]isa.Reg
	sol := core.Backward{
		Instr: func(idx int, live core.RegMask) core.RegMask {
			in := p.Text[idx]
			if d, ok := in.Dest(); ok {
				live &^= regBit(d)
			}
			for _, u := range in.Uses(usesBuf[:0]) {
				live |= regBit(u)
			}
			return live
		},
		// The point right after the jal retires is the callee's entry:
		// what the callee (transitively) reads is what is live, including
		// the just-written $ra.
		Call: func(_ int, _, entry core.RegMask) core.RegMask { return entry &^ regBit(isa.RegRA) },
		Return: func(b core.Block, ret core.RegMask) core.RegMask {
			if p.Text[b.End-1].Op == isa.JR {
				return ret
			}
			// The block leaves the CFG without a return: a terminal
			// syscall that may be exit, or text falling off the function
			// end. Liveness cannot see past that point.
			return AllRegs
		},
	}.Solve(p, cfgs)

	for fi, cfg := range cfgs {
		for bi := range cfg.Blocks {
			sol.Walk(fi, bi, func(idx int, after, _ core.RegMask) {
				if p.Text[idx].Op == isa.JAL {
					after = sol.CalleeEntry(idx)
				}
				li.LiveOut[idx] = after
			})
		}
	}
	return li, nil
}
