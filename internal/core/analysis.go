package core

import (
	"fmt"
	"math/bits"
	"strings"

	"etap/internal/isa"
)

// Policy selects how aggressively the analysis extends the paper's basic
// control slice.
type Policy uint8

const (
	// PolicyControl is the paper's Section 3 analysis: only control
	// instructions seed CVar, and definitions (including loads) propagate
	// backward through registers. Memory is untracked, so a value that is
	// stored and later reloaded into a control computation escapes
	// protection — the residual failure source the paper discusses in §5.1.
	PolicyControl Policy = iota
	// PolicyControlAddr additionally treats every load/store address base
	// register as control-live, protecting all address computations (the
	// "address operations" class of the authors' companion MICRO-05 WS
	// paper). This removes misalignment crashes caused by corrupted
	// addresses at the cost of tagging fewer instructions.
	PolicyControlAddr
	// PolicyConservative additionally treats every stored value as
	// control-live, closing the memory-aliasing hole entirely (any value
	// that reaches memory is protected). It is the sound-but-expensive
	// upper bound used by the ablation benches.
	PolicyConservative
)

func (p Policy) String() string {
	switch p {
	case PolicyControl:
		return "control"
	case PolicyControlAddr:
		return "control+addr"
	case PolicyConservative:
		return "conservative"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy is the inverse of Policy.String, shared by every CLI flag
// that selects a policy.
func ParsePolicy(s string) (Policy, bool) {
	for _, p := range []Policy{PolicyControl, PolicyControlAddr, PolicyConservative} {
		if s == p.String() {
			return p, true
		}
	}
	return 0, false
}

// RegMask is a register set encoded as a bitmask (bit i = register i).
// The zero register never appears in a mask.
type RegMask uint32

// Has reports whether r is in the set.
func (m RegMask) Has(r isa.Reg) bool { return m&(1<<r) != 0 }

// Count returns the number of registers in the set.
func (m RegMask) Count() int { return bits.OnesCount32(uint32(m)) }

// String renders the set in the paper's bracket notation, e.g. "[$3, $2]".
// Registers print in descending numeric order to match the paper's example
// listing (most recently added first is not tracked; descending is stable).
func (m RegMask) String() string {
	var parts []string
	for r := isa.NumRegs - 1; r >= 0; r-- {
		if m.Has(isa.Reg(r)) {
			parts = append(parts, fmt.Sprintf("$%d", r))
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func maskOf(rs ...isa.Reg) RegMask {
	var m RegMask
	for _, r := range rs {
		m |= 1 << r
	}
	return m &^ 1 // $zero is not a variable
}

// CallerSaved is the register set a call clobbers under the toolchain's
// convention: at, v0, v1, a0–a3, t0–t9, ra.
const CallerSaved RegMask = 1<<isa.RegAT | 1<<isa.RegV0 | 1<<isa.RegV1 |
	0xF<<isa.RegA0 | 0xFF<<isa.RegT0 | 1<<isa.RegT8 | 1<<isa.RegT9 | 1<<isa.RegRA

// argRegs is the register-argument set.
const argRegs RegMask = 0xF << isa.RegA0

// Summary is the inter-procedural summary of one function.
type Summary struct {
	// ArgsControl is the subset of a0–a3 that is control-live at function
	// entry: a caller must protect the computations feeding those
	// arguments.
	ArgsControl RegMask
	// RetControl records that at least one caller feeds the function's
	// return value into a control computation, so definitions of v0 at the
	// function's exits are control-live.
	RetControl bool
}

// Report is the complete analysis result for one program.
type Report struct {
	Prog   *isa.Program
	Policy Policy

	// Tagged marks low-reliability instructions: arithmetic, destination
	// not control-live, inside a tolerant function. These are the legal
	// fault-injection sites when protection is on.
	Tagged []bool
	// ControlSlice marks instructions that are part of the control slice:
	// control/syscall instructions plus any instruction whose destination
	// is control-live at its program point.
	ControlSlice []bool
	// CVarOut[i] is the CVar set at the program point after instruction i
	// (what the backward walk sees before processing i); the tagging
	// decision for i tests its destination against this set.
	CVarOut []RegMask
	// CVarIn[i] is the CVar set after processing i — the values the
	// paper's worked example prints in brackets next to each instruction.
	CVarIn []RegMask

	// Summaries holds the fixpoint inter-procedural summaries, indexed
	// like Prog.Funcs.
	Summaries []Summary

	// CFGs are the per-function control-flow graphs the analysis ran
	// over, indexed like Prog.Funcs. The harden rewriter consumes them to
	// place control-flow signature checks at block entries.
	CFGs []*FuncCFG
}

// Analyze runs the control-data analysis over a validated program.
//
// CVar is a client of the Backward solver: step is its instruction
// transfer function, a call kills the caller-saved set and adds the
// callee's control-live arguments, and a function's exits see $v0 as
// control-live once any caller's CVar holds $v0 after a call of it. At
// the fixpoint, a function's entry set restricted to a0–a3 is its
// ArgsControl and $v0 in its return set is its RetControl.
func Analyze(p *isa.Program, pol Policy) (*Report, error) {
	cfgs, err := BuildCFG(p)
	if err != nil {
		return nil, err
	}
	sol := Backward{
		Instr: func(idx int, cv RegMask) RegMask { return step(p.Text[idx], cv, pol) },
		Call: func(_ int, after, entry RegMask) RegMask {
			return after&^CallerSaved | entry&argRegs
		},
		Return: func(_ Block, ret RegMask) RegMask { return ret & maskOf(isa.RegV0) },
	}.Solve(p, cfgs)

	r := &Report{
		Prog:         p,
		Policy:       pol,
		Tagged:       make([]bool, len(p.Text)),
		ControlSlice: make([]bool, len(p.Text)),
		CVarOut:      make([]RegMask, len(p.Text)),
		CVarIn:       make([]RegMask, len(p.Text)),
		Summaries:    make([]Summary, len(p.Funcs)),
		CFGs:         cfgs,
	}
	for fi, cfg := range cfgs {
		r.Summaries[fi] = Summary{
			ArgsControl: sol.In[fi][0] & argRegs,
			RetControl:  sol.Ret[fi].Has(isa.RegV0),
		}
		tolerant := cfg.Func.Tolerant
		for bi := range cfg.Blocks {
			sol.Walk(fi, bi, func(idx int, after, before RegMask) {
				r.CVarOut[idx], r.CVarIn[idx] = after, before
				in := p.Text[idx]
				switch in.Class() {
				case isa.ClassControl, isa.ClassSys:
					r.ControlSlice[idx] = true
				case isa.ClassArith:
					if in.Rd != isa.RegZero && after.Has(in.Rd) {
						r.ControlSlice[idx] = true
					} else if in.IsInjectable() && tolerant {
						r.Tagged[idx] = true
					}
				case isa.ClassLoad:
					if in.Rd != isa.RegZero && after.Has(in.Rd) {
						r.ControlSlice[idx] = true
					}
				}
			})
		}
	}
	return r, nil
}

// step applies the backward transfer function of one non-call
// instruction. It is the direct encoding of the paper's rules plus the
// policy extensions.
func step(in isa.Instr, cv RegMask, pol Policy) RegMask {
	var usesBuf [3]isa.Reg
	switch in.Class() {
	case isa.ClassControl:
		if in.Op == isa.JALR {
			// Unknown callee: assume all register arguments are control and
			// the target register certainly is.
			cv &^= CallerSaved
			cv |= argRegs | maskOf(in.Rs)
		} else {
			cv |= maskOf(in.Uses(usesBuf[:0])...)
		}
	case isa.ClassSys:
		cv &^= maskOf(isa.RegV0)
		cv |= maskOf(isa.RegV0, isa.RegA0, isa.RegA1)
	case isa.ClassArith:
		// A division's divisor can raise a fault (divide by zero), which is
		// a control event just like a branch: the chain feeding it must be
		// protected even when the quotient itself is plain data.
		if in.Op == isa.DIV || in.Op == isa.REM {
			cv |= maskOf(in.Rt)
		}
		if in.Rd != isa.RegZero && cv.Has(in.Rd) {
			cv &^= maskOf(in.Rd)
			cv |= maskOf(in.Uses(usesBuf[:0])...)
		}
	case isa.ClassLoad:
		if in.Rd != isa.RegZero && cv.Has(in.Rd) {
			cv &^= maskOf(in.Rd)
			cv |= maskOf(in.Rs)
		}
		if pol >= PolicyControlAddr {
			cv |= maskOf(in.Rs)
		}
	case isa.ClassStore:
		if pol >= PolicyControlAddr {
			cv |= maskOf(in.Rs)
		}
		if pol >= PolicyConservative {
			cv |= maskOf(in.Rt)
		}
	}
	return cv &^ 1
}

// ProtectedSites returns the mask of instructions a redundancy transform
// must duplicate to realize the protection this report assumes: every
// injectable arithmetic instruction inside the control slice. Control
// instructions and loads in the slice are not included — they are not
// injection sites under the paper's fault model, so a rewriter protects
// their inputs rather than their execution.
func (r *Report) ProtectedSites() []bool {
	sites := make([]bool, len(r.Prog.Text))
	for i, in := range r.Prog.Text {
		sites[i] = r.ControlSlice[i] && in.IsInjectable()
	}
	return sites
}

// EligibleAll returns the protection-off injection mask: every injectable
// (result-writing arithmetic) instruction in the whole program, regardless
// of analysis or tolerance annotations. This models running the unchanged
// application on unreliable hardware.
func EligibleAll(p *isa.Program) []bool {
	el := make([]bool, len(p.Text))
	for i, in := range p.Text {
		el[i] = in.IsInjectable()
	}
	return el
}

// Stats summarises a report for Table-3 style output.
type Stats struct {
	TextInstrs    int
	Injectable    int // static injectable instruction count
	TaggedStatic  int // static tagged (low-reliability) count
	ControlStatic int // static control-slice count
	TolerantFuncs int
}

// Stats computes static statistics from the report.
func (r *Report) Stats() Stats {
	s := Stats{TextInstrs: len(r.Prog.Text)}
	for i := range r.Prog.Text {
		if r.Prog.Text[i].IsInjectable() {
			s.Injectable++
		}
		if r.Tagged[i] {
			s.TaggedStatic++
		}
		if r.ControlSlice[i] {
			s.ControlStatic++
		}
	}
	for _, f := range r.Prog.Funcs {
		if f.Tolerant {
			s.TolerantFuncs++
		}
	}
	return s
}
