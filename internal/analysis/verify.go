package analysis

import (
	"fmt"

	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/isa"
)

// Verification is the result of statically checking a hardened program
// against the protection contract its transforms promise.
type Verification struct {
	Policy core.Policy
	Opts   harden.Options

	// SigBlocks is the number of basic blocks whose signature prologue
	// parsed and verified; SigChecked of those carry a full
	// predecessor-check form (the rest re-synchronize).
	SigBlocks  int
	SigChecked int
	// DupChecks is the number of verified compare-against-shadow triples;
	// DupSites is the number of verified duplicated computations.
	DupChecks int
	DupSites  int

	// Violations lists every place the program fails the contract. Empty
	// means the program verifies.
	Violations []string
}

// OK reports whether the program satisfies the full protection contract.
func (v *Verification) OK() bool { return len(v.Violations) == 0 }

const maxViolations = 64

func (v *Verification) addf(format string, args ...any) {
	if len(v.Violations) < maxViolations {
		v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
	}
}

// sigEvent is one parsed signature prologue in the hardened text.
type sigEvent struct {
	start   int  // hardened index of the prologue's first instruction
	install int  // hardened index of the "addi $k0, $zero, sig" install
	check   bool // full predecessor-check form (vs. resync)
	sig     int32
	preds   []int32 // accepted predecessor signatures (check form)
	bad     bool    // the event failed to parse; details already reported
}

// sigOf mirrors the rewriter's compile-time signature assignment. The
// verifier recomputes it independently so a rewriter that mis-numbers
// blocks cannot vouch for itself.
func sigOf(fi, bi int) int32 { return 0x51<<24 | int32(fi)<<12 | int32(bi) }

// Verify statically checks a hardened program: under Signatures, every
// basic block of the original program must carry a correctly chained
// CFCSS prologue (legal-predecessor check or resync, matching the block's
// position in the CFG) and every copied branch must land exactly on the
// target block's prologue; under DupCompare, every policy-covered use
// site must be guarded by a dominating compare-against-shadow triple and
// every control-slice computation must have its shadow duplicate.
//
// The returned error reports structural problems (the result does not
// describe a coherent rewrite); contract failures land in
// Verification.Violations.
func Verify(res *harden.Result) (*Verification, error) {
	if res == nil || res.Prog == nil || res.Orig == nil {
		return nil, fmt.Errorf("analysis: nil harden result")
	}
	if len(res.OrigOf) != len(res.Prog.Text) || len(res.NewOf) != len(res.Orig.Text) {
		return nil, fmt.Errorf("analysis: harden result maps do not match program sizes")
	}
	origCFGs, err := core.BuildCFG(res.Orig)
	if err != nil {
		return nil, fmt.Errorf("analysis: original program: %w", err)
	}
	v := &Verification{Policy: res.Policy, Opts: res.Opts}
	if res.Opts.Signatures {
		v.verifySignatures(res, origCFGs)
	}
	if res.Opts.DupCompare {
		if err := v.verifyDup(res); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// verifySignatures parses every signature prologue out of the hardened
// text and checks chaining, placement and branch targeting against the
// original CFG.
func (v *Verification) verifySignatures(res *harden.Result, origCFGs []*core.FuncCFG) {
	h := res.Prog
	seenSig := make(map[int32]string)
	// hardenedStart[fi] maps block index to the hardened index a branch
	// into that block must target.
	hardenedStart := make([]map[int]int, len(h.Funcs))

	for fi, cfg := range origCFGs {
		events := v.parseSigEvents(res, h.Funcs[fi])
		if len(events) != len(cfg.Blocks) {
			v.addf("%s: %d signature prologues for %d basic blocks", cfg.Func.Name, len(events), len(cfg.Blocks))
			continue
		}
		hardenedStart[fi] = make(map[int]int, len(cfg.Blocks))
		for bi, ev := range events {
			if bi == 0 {
				// Function entries may be preceded by inserted seed code
				// (the entry $sp shadow refresh), so calls and the reset pc
				// target the function start, not the prologue.
				hardenedStart[fi][bi] = h.Funcs[fi].Start
			} else {
				hardenedStart[fi][bi] = ev.start
			}
			if ev.bad {
				continue
			}
			v.SigBlocks++
			want := sigOf(fi, bi)
			if ev.sig != want {
				v.addf("%s block %d: installs signature %#x, want %#x", cfg.Func.Name, bi, ev.sig, want)
			}
			if prev, dup := seenSig[ev.sig]; dup {
				v.addf("%s block %d: signature %#x already used by %s", cfg.Func.Name, bi, ev.sig, prev)
			}
			seenSig[ev.sig] = fmt.Sprintf("%s block %d", cfg.Func.Name, bi)

			preds := cfg.Blocks[bi].Preds
			wantResync := bi == 0 || cfg.Blocks[bi].CallCont || len(preds) == 0
			if wantResync && ev.check {
				v.addf("%s block %d: has a predecessor check but must resync (entry/call continuation)", cfg.Func.Name, bi)
				continue
			}
			if !wantResync && !ev.check {
				v.addf("%s block %d: resyncs without checking its %d predecessors", cfg.Func.Name, bi, len(preds))
				continue
			}
			if ev.check {
				v.SigChecked++
				wantPreds := make(map[int32]bool, len(preds))
				for _, p := range preds {
					wantPreds[sigOf(fi, p)] = true
				}
				got := make(map[int32]bool, len(ev.preds))
				for _, s := range ev.preds {
					got[s] = true
				}
				for s := range wantPreds {
					if !got[s] {
						v.addf("%s block %d: predecessor signature %#x not accepted", cfg.Func.Name, bi, s)
					}
				}
				for s := range got {
					if !wantPreds[s] {
						v.addf("%s block %d: accepts signature %#x of a non-predecessor", cfg.Func.Name, bi, s)
					}
				}
			}
		}
	}
	if v.SigBlocks != res.SigBlocks && len(v.Violations) == 0 {
		v.addf("verified %d signature blocks but the rewrite reports %d", v.SigBlocks, res.SigBlocks)
	}
	v.verifyBranchTargets(res, origCFGs, hardenedStart)
}

// parseSigEvents scans one hardened function linearly for signature
// prologues. Both forms are anchored on unmistakable instructions — a
// load from or store to SigAddr via $k0, which no other inserted or
// copied code produces — so a stripped or mangled prologue surfaces as a
// missing or malformed event.
func (v *Verification) parseSigEvents(res *harden.Result, f isa.FuncInfo) []sigEvent {
	h := res.Prog.Text
	var events []sigEvent
	inserted := func(i int) bool { return res.OrigOf[i] < 0 }
	for i := f.Start; i < f.End; i++ {
		in := h[i]
		switch {
		case in.Op == isa.LW && in.Rd == isa.RegK0 && in.Rs == isa.RegZero && in.Imm == int32(harden.SigAddr):
			// Check form: lw; (addi $k1; beq)+; trapdet; addi $k0; sw.
			ev := sigEvent{start: i, check: true}
			j := i + 1
			var beqTargets []int32
			for j+1 < f.End && h[j].Op == isa.ADDI && h[j].Rd == isa.RegK1 && h[j].Rs == isa.RegZero &&
				h[j+1].Op == isa.BEQ && h[j+1].Rs == isa.RegK0 && h[j+1].Rt == isa.RegK1 {
				ev.preds = append(ev.preds, h[j].Imm)
				beqTargets = append(beqTargets, h[j+1].Imm)
				j += 2
			}
			ok := len(ev.preds) > 0 &&
				j+2 < f.End &&
				h[j].Op == isa.TRAPDET && res.TrapKinds[j] == harden.CheckCFS &&
				h[j+1].Op == isa.ADDI && h[j+1].Rd == isa.RegK0 && h[j+1].Rs == isa.RegZero &&
				h[j+2].Op == isa.SW && h[j+2].Rt == isa.RegK0 && h[j+2].Rs == isa.RegZero && h[j+2].Imm == int32(harden.SigAddr)
			if !ok {
				v.addf("%s: malformed signature check at hardened instr %d", f.Name, i)
				events = append(events, sigEvent{start: i, bad: true})
				i = j
				continue
			}
			ev.install = j + 1
			ev.sig = h[j+1].Imm
			for _, t := range beqTargets {
				if int(t) != ev.install {
					v.addf("%s: signature check at %d skips to %d, want %d", f.Name, i, t, ev.install)
					ev.bad = true
				}
			}
			for k := i; k <= j+2; k++ {
				if !inserted(k) {
					v.addf("%s: signature code at %d is attributed to an original instruction", f.Name, k)
					ev.bad = true
				}
			}
			events = append(events, ev)
			i = j + 2

		case in.Op == isa.ADDI && in.Rd == isa.RegK0 && in.Rs == isa.RegZero &&
			i+1 < f.End && h[i+1].Op == isa.SW && h[i+1].Rt == isa.RegK0 && h[i+1].Rs == isa.RegZero && h[i+1].Imm == int32(harden.SigAddr):
			// Resync form: addi $k0, $zero, sig; sw $k0, SigAddr($zero).
			if !inserted(i) || !inserted(i+1) {
				v.addf("%s: signature resync at %d is attributed to an original instruction", f.Name, i)
			}
			events = append(events, sigEvent{start: i, install: i, sig: in.Imm})
			i++
		}
	}
	return events
}

// verifyBranchTargets checks that every copied branch, jump and call in
// the hardened program lands exactly where the signature chain expects:
// block targets on the target block's prologue, calls on the callee's
// entry. A fixup pass that skipped an instruction — leaving a branch
// into the middle of a block, past its signature check — is a chaining
// escape and is reported.
func (v *Verification) verifyBranchTargets(res *harden.Result, origCFGs []*core.FuncCFG, hardenedStart []map[int]int) {
	orig := res.Orig
	entryToFunc := make(map[int]int, len(orig.Funcs))
	funcOf := make([]int, len(orig.Text))
	for fi, f := range orig.Funcs {
		entryToFunc[f.Start] = fi
		for i := f.Start; i < f.End; i++ {
			funcOf[i] = fi
		}
	}
	for i, in := range res.Prog.Text {
		oi := res.OrigOf[i]
		if oi < 0 {
			continue
		}
		origTarget := int(orig.Text[oi].Imm)
		var want int
		switch in.Op {
		case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ, isa.J:
			tfi := funcOf[origTarget]
			tbi, ok := origCFGs[tfi].BlockAt(origTarget)
			if !ok || origCFGs[tfi].Blocks[tbi].Start != origTarget {
				v.addf("hardened instr %d: original target %d is not a block leader", i, origTarget)
				continue
			}
			if hardenedStart[tfi] == nil {
				continue // block map unavailable (prologue count mismatch already reported)
			}
			want = hardenedStart[tfi][tbi]
		case isa.JAL:
			want = res.Prog.Funcs[entryToFunc[origTarget]].Start
		default:
			continue
		}
		if int(in.Imm) != want {
			v.addf("hardened instr %d (%s): targets %d, bypassing the signature prologue at %d",
				i, isa.Disasm(in), in.Imm, want)
		}
	}
}

// requiredChecks mirrors the rewriter's policy-dependent compare set for
// one original instruction: which registers must be compared against
// their shadows immediately before it runs. The zero register never
// needs a check.
func requiredChecks(in isa.Instr, pol core.Policy) []isa.Reg {
	var regs []isa.Reg
	add := func(r isa.Reg) {
		if r == isa.RegZero {
			return
		}
		for _, have := range regs {
			if have == r {
				return
			}
		}
		regs = append(regs, r)
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
		if pol >= core.PolicyControlAddr {
			add(in.Rs)
		}
	case isa.ClassStore:
		if pol >= core.PolicyControlAddr {
			add(in.Rs)
		}
		if pol >= core.PolicyConservative {
			add(in.Rt)
		}
	}
	return regs
}

func shadowAddr(r isa.Reg) int32 { return int32(harden.ShadowBase) + 4*int32(r) }

// verifyDup checks the duplicate-and-compare contract: every original
// instruction's expansion carries exactly the policy-required
// compare-against-shadow triples, each triple dominates the primary it
// guards in the hardened CFG, and every control-slice arithmetic
// instruction has its shadow recomputation.
func (v *Verification) verifyDup(res *harden.Result) error {
	rep, err := core.Analyze(res.Orig, res.Policy)
	if err != nil {
		return fmt.Errorf("analysis: re-analyzing original: %w", err)
	}
	protected := rep.ProtectedSites()
	h := res.Prog.Text

	hCFGs, err := core.BuildCFG(res.Prog)
	if err != nil {
		v.addf("hardened program has no valid CFG: %v", err)
		hCFGs = nil
	}
	hFuncOf := make([]int, len(h))
	for fi, f := range res.Prog.Funcs {
		for i := f.Start; i < f.End; i++ {
			hFuncOf[i] = fi
		}
	}
	doms := make([]*DomTree, len(res.Prog.Funcs))

	// dominates reports whether hardened instruction a dominates b.
	dominates := func(a, b int) bool {
		if hCFGs == nil {
			return true // already reported; avoid cascading noise
		}
		fi := hFuncOf[a]
		if fi != hFuncOf[b] {
			return false
		}
		if doms[fi] == nil {
			doms[fi] = Dominators(hCFGs[fi])
		}
		ba, okA := hCFGs[fi].BlockAt(a)
		bb, okB := hCFGs[fi].BlockAt(b)
		if !okA || !okB {
			return false
		}
		if ba == bb {
			return a <= b
		}
		return doms[fi].Dominates(ba, bb)
	}

	prevPrimary := -1
	for oi, in := range res.Orig.Text {
		pi := res.NewOf[oi]
		// The expansion window: everything emitted after the previous
		// primary and before this one — the previous instruction's
		// trailing refresh/mirror code, this block's prologue if oi leads
		// it, and this instruction's checks and shadow compute. Dup-check
		// triples in the window belong to oi by construction (trailing
		// code and signature prologues contain none).
		var got []isa.Reg
		hasShadowStore := false
		var wantShadow int32
		if protected[oi] {
			wantShadow = shadowAddr(in.Rd)
		}
		for j := prevPrimary + 1; j < pi; j++ {
			if res.OrigOf[j] >= 0 {
				v.addf("original instr %d: expansion window contains copied instruction at %d", oi, j)
				continue
			}
			if j+2 < pi &&
				h[j].Op == isa.LW && h[j].Rd == isa.RegK0 && h[j].Rs == isa.RegZero &&
				h[j+1].Op == isa.BEQ && h[j+1].Rs == isa.RegK0 &&
				h[j+2].Op == isa.TRAPDET && res.TrapKinds[j+2] == harden.CheckDup {
				r := h[j+1].Rt
				if h[j].Imm != shadowAddr(r) {
					v.addf("original instr %d: check at %d compares %s against shadow slot %#x", oi, j, r, h[j].Imm)
				}
				if int(h[j+1].Imm) != j+3 {
					v.addf("original instr %d: check at %d skips to %d, want %d", oi, j, h[j+1].Imm, j+3)
				}
				if !dominates(j+1, pi) {
					v.addf("original instr %d: check of %s at %d does not dominate its use at %d", oi, r, j, pi)
				}
				got = append(got, r)
				v.DupChecks++
				j += 2
				continue
			}
			if protected[oi] && h[j].Op == isa.SW && h[j].Rt == isa.RegK0 && h[j].Rs == isa.RegZero && h[j].Imm == wantShadow {
				hasShadowStore = true
			}
		}
		want := requiredChecks(in, res.Policy)
		if len(got) != len(want) {
			v.addf("original instr %d (%s): %d shadow checks, want %d", oi, isa.Disasm(in), len(got), len(want))
		} else {
			for k := range want {
				if got[k] != want[k] {
					v.addf("original instr %d (%s): check %d compares %s, want %s", oi, isa.Disasm(in), k, got[k], want[k])
				}
			}
		}
		if protected[oi] {
			if hasShadowStore {
				v.DupSites++
			} else {
				v.addf("original instr %d (%s): control-slice computation has no shadow duplicate", oi, isa.Disasm(in))
			}
		}
		prevPrimary = pi
	}
	if v.DupChecks != res.Checks && len(v.Violations) == 0 {
		v.addf("verified %d shadow checks but the rewrite reports %d", v.DupChecks, res.Checks)
	}
	if v.DupSites != res.DupSites && len(v.Violations) == 0 {
		v.addf("verified %d duplicated sites but the rewrite reports %d", v.DupSites, res.DupSites)
	}
	return nil
}
