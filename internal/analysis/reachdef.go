package analysis

import (
	"slices"

	"etap/internal/core"
	"etap/internal/isa"
)

// This file implements classic reaching definitions and def-use chains —
// the "technique ... used in contemporary compilers" the paper's Section 3
// builds on. Escapes reads the chains to find tagged values that reach
// memory. They are also an *independent* computation of the def-use
// structure that core's cross-validation test checks the CVar analysis
// against: a tagged (low-reliability) definition must never be directly
// consumed by a control-consuming site. That check is meaningful because
// the chains come from a structurally different algorithm (forward
// bitvector dataflow instead of the backward set walk), so this pass
// deliberately does not share core's Backward solver.

// DefID identifies one register definition site.
type DefID int32

// DefSite describes a definition: instruction index and defined register.
type DefSite struct {
	Instr int
	Reg   isa.Reg
}

// DefUse holds reaching-definition results for one function.
type DefUse struct {
	Func isa.FuncInfo
	// Defs lists every definition site in the function, indexed by DefID.
	Defs []DefSite
	// UseDefs maps an absolute text index to, per use operand, the
	// definitions reaching it. Definitions made outside the function
	// (arguments, callee results) have no DefID and are simply absent.
	UseDefs map[int][]DefID
	// DefUses is the inverse: for each DefID, the instruction indices that
	// consume it.
	DefUses [][]int
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i DefID)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i DefID) bool { return b[i/64]&(1<<(i%64)) != 0 }

// ReachingDefs computes per-function def-use chains for the whole program.
func ReachingDefs(p *isa.Program) ([]*DefUse, error) {
	cfgs, err := core.BuildCFG(p)
	if err != nil {
		return nil, err
	}
	out := make([]*DefUse, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = reachFunc(p, cfg)
	}
	return out, nil
}

func reachFunc(p *isa.Program, cfg *core.FuncCFG) *DefUse {
	du := &DefUse{Func: cfg.Func, UseDefs: make(map[int][]DefID)}

	// Enumerate definition sites. Calls clobber the caller-saved set; model
	// each clobber as a definition so stale defs do not flow past calls.
	// defsAt[idx-Start] lists the definitions instruction idx makes.
	defsOfReg := make([][]DefID, isa.NumRegs)
	defsAt := make([][]DefID, cfg.Func.End-cfg.Func.Start)
	addDef := func(idx int, r isa.Reg) {
		id := DefID(len(du.Defs))
		du.Defs = append(du.Defs, DefSite{Instr: idx, Reg: r})
		defsOfReg[r] = append(defsOfReg[r], id)
		defsAt[idx-cfg.Func.Start] = append(defsAt[idx-cfg.Func.Start], id)
	}
	for idx := cfg.Func.Start; idx < cfg.Func.End; idx++ {
		in := p.Text[idx]
		d, ok := in.Dest()
		if ok && d != isa.RegZero {
			addDef(idx, d)
		}
		if in.Op == isa.JAL || in.Op == isa.JALR {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if core.CallerSaved.Has(r) && !(ok && d == r) {
					addDef(idx, r)
				}
			}
		}
	}
	nd := len(du.Defs)
	du.DefUses = make([][]int, nd)
	// regDefs[r] is the set of every definition of r: what a new
	// definition of r kills.
	regDefs := make([]bitset, isa.NumRegs)
	for r, ids := range defsOfReg {
		regDefs[r] = newBitset(nd)
		for _, id := range ids {
			regDefs[r].set(id)
		}
	}

	// walk runs block b forward from the definitions reaching its entry
	// and returns those reaching its exit. With record set it resolves
	// every use against the definitions reaching it.
	var usesBuf [3]isa.Reg
	walk := func(b int, entry bitset, record bool) bitset {
		blk := cfg.Blocks[b]
		cur := append(bitset(nil), entry...)
		for idx := blk.Start; idx < blk.End; idx++ {
			if record {
				in := p.Text[idx]
				uses := in.Uses(usesBuf[:0])
				if in.Op == isa.JAL || in.Op == isa.JALR {
					// Virtual uses: calls consume the argument registers;
					// the cross-validation decides via callee summaries
					// whether a given argument is control-live.
					uses = append(uses, isa.RegA0, isa.RegA1, isa.RegA2, isa.RegA3)
				}
				for _, r := range uses {
					for _, id := range defsOfReg[r] {
						if cur.has(id) {
							du.record(idx, id)
						}
					}
				}
			}
			for _, id := range defsAt[idx-cfg.Func.Start] {
				for i, w := range regDefs[du.Defs[id].Reg] {
					cur[i] &^= w
				}
				cur.set(id)
			}
		}
		return cur
	}

	// Forward fixpoint: in[b] = ∪ out[pred]; out[b] = walk(b, in[b]).
	ins := make([]bitset, len(cfg.Blocks))
	outs := make([]bitset, len(cfg.Blocks))
	for b := range cfg.Blocks {
		ins[b] = newBitset(nd)
		outs[b] = newBitset(nd)
	}
	for changed := true; changed; {
		changed = false
		for b, blk := range cfg.Blocks {
			clear(ins[b])
			for _, pb := range blk.Preds {
				for i, w := range outs[pb] {
					ins[b][i] |= w
				}
			}
			if out := walk(b, ins[b], false); !slices.Equal(out, outs[b]) {
				outs[b] = out
				changed = true
			}
		}
	}
	for b := range cfg.Blocks {
		walk(b, ins[b], true)
	}
	return du
}

func (du *DefUse) record(useInstr int, id DefID) {
	du.UseDefs[useInstr] = append(du.UseDefs[useInstr], id)
	du.DefUses[id] = append(du.DefUses[id], useInstr)
}
