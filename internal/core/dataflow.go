package core

import "etap/internal/isa"

// Backward is a backward interprocedural dataflow problem over register
// sets. The CVar analysis (Analyze) and register liveness
// (analysis.Liveness) are its clients: each supplies three transfer
// functions, and Solve computes their least fixpoint over the
// supergraph formed by the per-function CFGs plus call and return edges.
//
// Every transfer function must be monotone and must never put the zero
// register into a set.
type Backward struct {
	// Instr maps the set after the non-call instruction at text index
	// idx to the set before it.
	Instr func(idx int, after RegMask) RegMask
	// Call maps the set after the jal at text index idx returns, and the
	// callee's entry set, to the set before the jal.
	Call func(idx int, after, entry RegMask) RegMask
	// Return maps a function's return set — the union of the sets after
	// every call of it — to the exit set of its Return block b.
	Return func(b Block, ret RegMask) RegMask
}

// Solution is the fixpoint of a Backward problem.
type Solution struct {
	// In[f][b] is the set at the entry of block b of function f.
	In [][]RegMask
	// Ret[f] is function f's return set.
	Ret []RegMask

	prob        Backward
	prog        *isa.Program
	cfgs        []*FuncCFG
	entryToFunc map[int]int

	// work is the worklist of blocks whose entry set may grow; queued
	// marks its members.
	work   []blockRef
	queued [][]bool
}

type blockRef struct{ f, b int }

// Solve runs the problem to its fixpoint over the CFGs of p.
//
// One worklist covers every block of every function. A block is queued
// again only when a set it reads grows: the entry set of a successor or
// of a callee, or the return set of its function. New block states are
// joined into the old ones, so every block state and every return set
// only grows. Each can grow at most 31 times, so the loop ends without a
// round bound.
func (prob Backward) Solve(p *isa.Program, cfgs []*FuncCFG) *Solution {
	s := &Solution{
		In:          make([][]RegMask, len(cfgs)),
		Ret:         make([]RegMask, len(cfgs)),
		prob:        prob,
		prog:        p,
		cfgs:        cfgs,
		entryToFunc: make(map[int]int, len(cfgs)),
		queued:      make([][]bool, len(cfgs)),
	}
	for fi, cfg := range cfgs {
		s.entryToFunc[cfg.Func.Start] = fi
		s.In[fi] = make([]RegMask, len(cfg.Blocks))
		s.queued[fi] = make([]bool, len(cfg.Blocks))
	}
	// callers[f] lists the blocks that call f; a call always ends its
	// block.
	callers := make([][]blockRef, len(cfgs))
	for fi, cfg := range cfgs {
		for bi, b := range cfg.Blocks {
			s.push(fi, bi)
			if last := p.Text[b.End-1]; last.Op == isa.JAL {
				c := s.entryToFunc[int(last.Imm)]
				callers[c] = append(callers[c], blockRef{fi, bi})
			}
		}
	}
	for len(s.work) > 0 {
		r := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.queued[r.f][r.b] = false
		in := s.In[r.f][r.b] | s.Walk(r.f, r.b, nil)
		if in == s.In[r.f][r.b] {
			continue
		}
		s.In[r.f][r.b] = in
		for _, pb := range cfgs[r.f].Blocks[r.b].Preds {
			s.push(r.f, pb)
		}
		if r.b == 0 {
			for _, c := range callers[r.f] {
				s.push(c.f, c.b)
			}
		}
	}
	return s
}

func (s *Solution) push(f, b int) {
	if !s.queued[f][b] {
		s.queued[f][b] = true
		s.work = append(s.work, blockRef{f, b})
	}
}

// Walk applies the transfer functions backward over block bi of
// function fi, from the block's exit set, and returns its entry set.
// visit, if not nil, sees every instruction with the sets after and
// before it. On a converged Solution, Walk reproduces In.
func (s *Solution) Walk(fi, bi int, visit func(idx int, after, before RegMask)) RegMask {
	b := s.cfgs[fi].Blocks[bi]
	cur := RegMask(0)
	if b.Return {
		cur = s.prob.Return(b, s.Ret[fi])
	}
	for _, sb := range b.Succs {
		cur |= s.In[fi][sb]
	}
	for idx := b.End - 1; idx >= b.Start; idx-- {
		var next RegMask
		if in := s.prog.Text[idx]; in.Op == isa.JAL {
			c := s.entryToFunc[int(in.Imm)]
			if ret := s.Ret[c] | cur; ret != s.Ret[c] {
				s.Ret[c] = ret
				for rb, blk := range s.cfgs[c].Blocks {
					if blk.Return {
						s.push(c, rb)
					}
				}
			}
			next = s.prob.Call(idx, cur, s.In[c][0])
		} else {
			next = s.prob.Instr(idx, cur)
		}
		if visit != nil {
			visit(idx, cur, next)
		}
		cur = next
	}
	return cur
}

// CalleeEntry returns the entry set of the function that the jal at
// text index idx calls.
func (s *Solution) CalleeEntry(idx int) RegMask {
	return s.In[s.entryToFunc[int(s.prog.Text[idx].Imm)]][0]
}
