package analysis

import "etap/internal/core"

// DomTree is the dominator tree of one function's CFG, computed with the
// Cooper–Harvey–Kennedy iterative algorithm over reverse postorder. The
// hardening verifier uses it to prove that every duplicate-compare check
// dominates the use it guards in the rewritten program.
type DomTree struct {
	CFG *core.FuncCFG
	// Idom[b] is b's immediate dominator block ID; the entry block is its
	// own idom, and blocks unreachable from the entry have Idom -1.
	Idom []int

	poNum []int // postorder number per block, -1 if unreachable
}

// Dominators computes the dominator tree for cfg. Block 0 (the function
// entry) is the root.
func Dominators(cfg *core.FuncCFG) *DomTree {
	n := len(cfg.Blocks)
	d := &DomTree{CFG: cfg, Idom: make([]int, n), poNum: make([]int, n)}
	for i := range d.Idom {
		d.Idom[i] = -1
		d.poNum[i] = -1
	}
	if n == 0 {
		return d
	}

	// Iterative DFS for postorder; Succs can contain duplicates and
	// self-loops, both harmless here.
	type frame struct{ b, next int }
	var postorder []int
	stack := []frame{{0, 0}}
	seen := make([]bool, n)
	seen[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := cfg.Blocks[f.b].Succs
		if f.next < len(succs) {
			s := succs[f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		d.poNum[f.b] = len(postorder)
		postorder = append(postorder, f.b)
		stack = stack[:len(stack)-1]
	}

	d.Idom[0] = 0
	for changed := true; changed; {
		changed = false
		// Reverse postorder, skipping the entry.
		for i := len(postorder) - 1; i >= 0; i-- {
			b := postorder[i]
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range cfg.Blocks[b].Preds {
				if d.Idom[p] < 0 {
					continue // unprocessed or unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = d.intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && d.Idom[b] != newIdom {
				d.Idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

// intersect walks two blocks up the (partial) dominator tree to their
// common ancestor, comparing by postorder number.
func (d *DomTree) intersect(a, b int) int {
	for a != b {
		for d.poNum[a] < d.poNum[b] {
			a = d.Idom[a]
		}
		for d.poNum[b] < d.poNum[a] {
			b = d.Idom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b (reflexively).
// Unreachable blocks dominate nothing and are dominated by nothing but
// themselves.
func (d *DomTree) Dominates(a, b int) bool {
	if a == b {
		return true
	}
	if d.poNum[a] < 0 || d.poNum[b] < 0 {
		return false
	}
	for b != 0 {
		b = d.Idom[b]
		if b == a {
			return true
		}
	}
	return a == 0
}

// Depth is the dominator-tree depth of block b (entry = 0), or -1 for
// unreachable blocks.
func (d *DomTree) Depth(b int) int {
	if d.poNum[b] < 0 {
		return -1
	}
	depth := 0
	for b != 0 {
		b = d.Idom[b]
		depth++
	}
	return depth
}
