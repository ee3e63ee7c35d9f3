// Trial-state pooling: campaigns run millions of short trials, and every
// run — a plain Run, the golden pass and each trial — executes on the
// copy-on-write page tables of a Runner (setup below). A Runner keeps one
// machine, the page tables, the sparse-page maps and the private pages
// delta-encoded checkpoint pages materialize into alive across all the
// trials one campaign worker runs; throwaway Runners (Run, Record) draw
// their page tables from a pool.
//
// Pooling invariants (see docs/PERF.md): a machine owns no memory but its
// private pages — pages shared with a base image or a checkpoint are read
// only and copied on first write — and a Runner is single-goroutine, its
// machine state fully reinitialised per run, so no architectural state
// leaks between runs.
package sim

import (
	"fmt"
	"sync"
	"time"

	"etap/internal/isa"
)

// restoreBuf holds the copy-on-write page tables a machine indexes by
// fast-region page number.
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
// state: the machine struct, the page tables, the sparse-page
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
		// Drop the page references so a pooled table keeps no run's
		// memory alive.
		clear(rn.rb.pageTab)
		clear(rn.rb.wrTab)
		restorePool.Put(rn.rb)
		rn.rb = nil
	}
}

// RunFrom is Recording.RunFrom on reused state: resume from checkpoint idx
// (-1 for scratch) under a trial plan and optional instruction budget.
// Every index runs the recording's own predecoded stream, so the plan
// must carry the recorded mask (or be nil) at every index.
func (rn *Runner) RunFrom(idx int, plan *FaultPlan, maxInstr uint64) Result {
	r := rn.rec
	cfg := r.cfg
	cfg.Plan = plan
	if maxInstr != 0 {
		cfg.MaxInstr = maxInstr
	}
	if plan != nil && !sameMask(plan.Eligible, r.elig) &&
		maskFingerprint(plan.Eligible) != r.maskFP {
		// Fail fast: the recorded stream and checkpoints count eligible
		// ordinals under the recorded mask only, so any other mask would
		// mis-place every injection and silently corrupt the trial.
		panic(fmt.Sprintf("sim: RunFrom(%d): trial plan's eligibility mask (fingerprint %#x) differs from the recorded one (%#x); a recording's eligible-stream positions are meaningless under any other mask (use Run)", idx, maskFingerprint(plan.Eligible), r.maskFP))
	}
	m := rn.start(idx, cfg)
	start := time.Now()
	m.runEngine(r.code)
	if idx < 0 {
		recordRunMetrics(simRunsScratch, m.instret, time.Since(start))
	} else {
		// The machine resumed at the checkpoint; only the instructions
		// actually re-executed count toward the process totals.
		recordRunMetrics(simRunsRestore, m.instret-r.snaps[idx].Instret, time.Since(start))
	}
	return m.result()
}

// start readies the runner's machine to run the recording's program
// under cfg: resumed at checkpoint idx, or at the program entry over the
// base image when idx is -1. It is the one machine setup every run goes
// through. Base-image and keyframe pages are shared read-only; delta
// pages materialize into the runner's private pages, which the run then
// writes in place.
func (rn *Runner) start(idx int, cfg Config) *machine {
	r := rn.rec
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
		text:     r.prog.Text,
		memSize:  cfg.MemSize,
		pageTab:  rb.pageTab,
		wrTab:    rb.wrTab,
		pages:    rn.pages,
		roSparse: rn.roSparse,
		input:    cfg.Input,
		cfg:      cfg,
	}
	if cfg.Plan != nil {
		m.injections = cfg.Plan.Injections
	}
	if idx < 0 {
		m.pc = r.prog.Entry
		m.regs[isa.RegSP] = cfg.MemSize - 16
		return m
	}
	s := r.snaps[idx]
	m.pc = s.PC
	m.classCounts = s.classCounts
	m.instret = s.Instret
	m.eligCount = s.EligCount
	m.inPos = s.inPos
	m.out = s.out
	copy(m.regs[:], s.regs[:])
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
	return m
}
