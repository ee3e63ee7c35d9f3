// Trial-state pooling: campaigns run millions of short trials, and before
// this file every one of them allocated a fresh 8 MiB memory image (scratch
// trials) or fresh page tables (restored trials). Both are
// now recycled. Scratch memory comes from a sync.Pool of scratchBufs whose
// per-page dirty bitmap — maintained by the flat store path — lets reset()
// zero only the pages a trial actually wrote. Restored trials run on a
// Runner, which keeps one machine, the page tables and the
// sparse-page maps alive across all trials one campaign worker runs.
//
// Pooling invariants (see docs/PERF.md): a scratchBuf's mem is all-zero
// outside pages marked in dirty — every write path through the machine
// either goes via store()/store8/16/32 (which set the bit) or is followed
// by markRange — and a Runner is single-goroutine, its machine state fully
// reinitialised per trial, so no architectural state leaks between trials.
package sim

import (
	"fmt"
	mathbits "math/bits"
	"sync"
	"time"
)

// scratchBuf is a pooled flat memory image plus its page-dirty bitmap.
type scratchBuf struct {
	mem   []byte
	dirty []uint64
}

var scratchPool sync.Pool

// acquireScratch returns a zeroed flat image of exactly size bytes,
// reusing a pooled one when the geometry matches. Non-default sizes miss
// the pool and allocate fresh, which is what every run did before pooling.
func acquireScratch(size uint32) *scratchBuf {
	if v := scratchPool.Get(); v != nil {
		b := v.(*scratchBuf)
		if uint32(len(b.mem)) == size {
			return b
		}
	}
	pages := (uint64(size) + pageSize - 1) >> pageShift
	return &scratchBuf{
		mem:   make([]byte, size),
		dirty: make([]uint64, (pages+63)/64),
	}
}

// markRange flags the pages covering [base, base+n) as dirty, for writes
// that bypass the store path (the data-segment copy at machine setup).
func (b *scratchBuf) markRange(base, n uint32) {
	if n == 0 {
		return
	}
	lo := base >> pageShift
	hi := (base + n - 1) >> pageShift
	for pn := lo; pn <= hi; pn++ {
		b.dirty[pn>>6] |= 1 << (pn & 63)
	}
}

// reset zeroes every dirtied page and clears the bitmap, restoring the
// all-zero invariant.
func (b *scratchBuf) reset() {
	for w, word := range b.dirty {
		for word != 0 {
			bit := word & -word
			word ^= bit
			pn := w<<6 + mathbits.TrailingZeros64(bit)
			lo := pn << pageShift
			hi := lo + pageSize
			if hi > len(b.mem) {
				hi = len(b.mem)
			}
			clear(b.mem[lo:hi])
		}
		b.dirty[w] = 0
	}
}

// release resets the buffer and returns it to the pool. The owning machine
// must be dead: its Result has been taken and it will not run again.
func (b *scratchBuf) release() {
	b.reset()
	scratchPool.Put(b)
}

// restoreBuf holds the copy-on-write page tables a restored machine
// indexes by fast-region page number.
type restoreBuf struct {
	pageTab []*[pageSize]byte
	wrTab   []*[pageSize]byte
}

var restorePool sync.Pool

func acquireRestore(fastPages int) *restoreBuf {
	if v := restorePool.Get(); v != nil {
		b := v.(*restoreBuf)
		if len(b.pageTab) == fastPages {
			return b
		}
	}
	return &restoreBuf{
		pageTab: make([]*[pageSize]byte, fastPages),
		wrTab:   make([]*[pageSize]byte, fastPages),
	}
}

// Runner executes trials against one Recording while reusing all per-trial
// state: the machine struct, the restore page tables, the sparse-page
// maps and the private pages delta-encoded checkpoint pages materialize
// into. It is not safe for concurrent use — each campaign
// worker owns one — but any number of Runners may share a Recording.
type Runner struct {
	rec      *Recording
	rb       *restoreBuf
	m        machine
	pages    map[uint32]*[pageSize]byte
	roSparse map[uint32]*[pageSize]byte
	own      []*[pageSize]byte
}

// NewRunner returns a Runner bound to the recording. Call Close when the
// trial sequence is done so the pooled restore state can be recycled.
func (r *Recording) NewRunner() *Runner {
	return &Runner{
		rec:      r,
		pages:    make(map[uint32]*[pageSize]byte),
		roSparse: make(map[uint32]*[pageSize]byte),
	}
}

// Close returns pooled state. The Runner must not be used afterwards.
func (rn *Runner) Close() {
	if rn.rb != nil {
		restorePool.Put(rn.rb)
		rn.rb = nil
	}
}

// RunFrom is Recording.RunFrom on reused state: resume from checkpoint idx
// (-1 for scratch) under a trial plan and optional instruction budget.
func (rn *Runner) RunFrom(idx int, plan *FaultPlan, maxInstr uint64) Result {
	r := rn.rec
	cfg := r.cfg
	cfg.Plan = plan
	if maxInstr != 0 {
		cfg.MaxInstr = maxInstr
	}
	if idx >= 0 && plan != nil && !sameMask(plan.Eligible, r.elig) &&
		maskFingerprint(plan.Eligible) != r.maskFP {
		// Fail fast: resuming mid-stream under a different mask would
		// mis-place every injection and silently corrupt the trial.
		panic(fmt.Sprintf("sim: RunFrom(%d): trial plan's eligibility mask (fingerprint %#x) differs from the recorded one (%#x); checkpoint eligible-stream positions are meaningless under any other mask", idx, maskFingerprint(plan.Eligible), r.maskFP))
	}
	code := codeForPlan(r, plan)
	if idx < 0 {
		m, buf := newScratch(r.prog, cfg)
		start := time.Now()
		m.runEngine(code)
		recordRunMetrics(simRunsScratch, m.instret, time.Since(start))
		res := m.result()
		buf.release()
		return res
	}

	s := r.snaps[idx]
	fastPages := int(cfg.MemSize >> pageShift)
	if rn.rb == nil {
		rn.rb = acquireRestore(fastPages)
	}
	rb := rn.rb
	copy(rb.pageTab, r.base)
	clear(rb.wrTab)
	clear(rn.pages)
	clear(rn.roSparse)

	m := &rn.m
	*m = machine{
		text:        r.prog.Text,
		memSize:     cfg.MemSize,
		paged:       true,
		pageTab:     rb.pageTab,
		wrTab:       rb.wrTab,
		pages:       rn.pages,
		roSparse:    rn.roSparse,
		input:       cfg.Input,
		cfg:         cfg,
		pc:          s.PC,
		classCounts: s.classCounts,
		instret:     s.Instret,
		eligCount:   s.EligCount,
		inPos:       s.inPos,
		out:         s.out,
	}
	copy(m.regs[:], s.regs[:])
	// Keyframe pages are shared read-only; delta pages materialize into
	// private pages the trial then writes in place.
	own := 0
	for pn, v := range s.pages {
		pg, private := v.full, v.full == nil
		if private {
			if own == len(rn.own) {
				rn.own = append(rn.own, new([pageSize]byte))
			}
			pg = rn.own[own]
			own++
			v.materialize(pg)
		}
		switch {
		case int(pn) >= fastPages && private:
			m.pages[pn] = pg
		case int(pn) >= fastPages:
			m.roSparse[pn] = pg
		default:
			rb.pageTab[pn] = pg
			if private {
				rb.wrTab[pn] = pg
			}
		}
	}
	if plan != nil {
		m.injections = plan.Injections
	}
	start := time.Now()
	m.runEngine(code)
	// The machine resumed at s.Instret; only the instructions actually
	// re-executed count toward the process totals.
	recordRunMetrics(simRunsRestore, m.instret-s.Instret, time.Since(start))
	return m.result()
}

// codeForPlan picks the predecoded stream for a trial against a recording:
// the recording's own folded stream when the plan carries the very mask
// the golden pass was recorded with (the common campaign case — matched by
// identity, so no per-trial lock), the cached plain stream for plan-less
// replays, and a codeFor compile for anything else. Using r.code for a
// different mask would mis-count EligibleExec, so the identity gate is
// load-bearing for correctness, not just speed.
func codeForPlan(r *Recording, plan *FaultPlan) []dinstr {
	if plan == nil {
		if len(r.elig) == 0 {
			return r.code
		}
		return codeFor(r.prog, nil)
	}
	if sameMask(plan.Eligible, r.elig) {
		return r.code
	}
	return codeFor(r.prog, plan)
}
