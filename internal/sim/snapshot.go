// Snapshot/restore support: a Recording runs one golden pass over a
// program, capturing machine checkpoints (registers, PC, instruction and
// eligible-stream counters, input cursor, output length, and the set of
// memory pages dirtied so far) at configurable instruction intervals.
// Faulty trials whose first injection lands late in the dynamic stream can
// then resume from the nearest checkpoint instead of re-simulating from
// instruction zero.
//
// Checkpoint memory is copy-on-write: a restored machine shares the
// checkpoint's page images read-only and copies a page the first time the
// trial writes it, so thousands of concurrent trials can hang off one
// golden pass without duplicating the address space. Restored runs are
// bit-identical to from-scratch runs — same Result down to output bytes,
// trap details and per-class instruction counts — which the campaign
// engine's determinism tests assert across every benchmark.
package sim

import (
	"fmt"
	mathbits "math/bits"
	"time"

	"etap/internal/isa"
)

// Snapshot is one machine checkpoint taken between two instructions of the
// golden pass. The exported fields identify where in the run it was taken;
// the memory image is private and shared copy-on-write between restored
// machines.
type Snapshot struct {
	// Instret is the number of instructions executed before the
	// checkpoint.
	Instret uint64
	// EligCount is the eligible-stream position at the checkpoint: a trial
	// whose first injection ordinal is at most EligCount must start from an
	// earlier checkpoint (or from scratch).
	EligCount uint64
	// PC is the text index of the next instruction.
	PC int

	regs        [isa.NumRegs]uint32
	classCounts [6]uint64
	inPos       int
	outLen      int
	out         []byte // golden output prefix; len == cap so appends copy
	pages       map[uint32]*[pageSize]byte
}

// RecordOptions parameterises checkpoint capture.
type RecordOptions struct {
	// Interval is the initial checkpoint spacing in executed instructions.
	// Defaults to 16384.
	Interval uint64
	// MaxSnapshots bounds the live checkpoint count: when a recording
	// would exceed twice this many, every other checkpoint is dropped and
	// the interval doubles, so arbitrarily long runs keep a bounded,
	// geometrically spaced checkpoint set. Defaults to 128; negative
	// disables the bound.
	MaxSnapshots int
}

func (o RecordOptions) withDefaults() RecordOptions {
	if o.Interval == 0 {
		o.Interval = 16384
	}
	if o.MaxSnapshots == 0 {
		o.MaxSnapshots = 128
	}
	return o
}

// Recording is the product of one golden pass: the clean Result plus the
// checkpoints captured along the way. It is immutable after Record returns
// and safe for concurrent RunFrom calls.
type Recording struct {
	// Result is the golden (fault-free) run outcome.
	Result Result

	prog   *isa.Program
	cfg    Config // defaults applied; Plan stripped
	snaps  []*Snapshot
	base   []*[pageSize]byte // initial fast-region image (data segment)
	elig   []bool            // eligibility mask the golden pass counted with
	maskFP uint64            // fingerprint of elig; restores reject other masks
	code   []dinstr          // predecoded stream with elig folded in
	marks  []uint64          // bit o-1 set: eligible ordinal o retired at a marked site
}

// maskFingerprint hashes an eligibility mask (FNV-1a over length and
// bools) so a Recording can cheaply reject trial plans built for a
// different mask: checkpoint eligible-stream positions are meaningless
// under any other mask, and a restore would silently mis-place every
// injection.
func maskFingerprint(elig []bool) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(len(elig))) * prime64
	for _, b := range elig {
		x := uint64(0)
		if b {
			x = 1
		}
		h = (h ^ x) * prime64
	}
	return h
}

// MaskFingerprint identifies the eligibility mask the golden pass was
// recorded with. Restores (RunFrom with idx >= 0) panic when the trial
// plan's mask does not match it.
func (r *Recording) MaskFingerprint() uint64 { return r.maskFP }

// recorder holds the capture state of a golden pass.
type recorder struct {
	interval uint64
	next     uint64
	maxSnaps int

	written []uint64                   // fast-region pages the pass wrote before the last capture
	cum     map[uint32]*[pageSize]byte // latest copy of every page written since run start
	snaps   []*Snapshot
}

// capture folds pages written since the previous checkpoint into the
// cumulative page map and snapshots the machine state between
// instructions. Between captures the machine's dirty bitmap holds exactly
// the fast-region pages written since the last one: capture copies them,
// moves their bits into written (so the scratch pool can still zero every
// page the pass wrote) and clears the bitmap. Sparse pages carry no dirty
// bits; one is copied when it differs from its last copy.
func (r *recorder) capture(m *machine) {
	for w, word := range m.dirty {
		r.written[w] |= word
		for word != 0 {
			b := word & -word
			word ^= b
			pn := uint32(w)<<6 + uint32(mathbits.TrailingZeros64(b))
			pg := new([pageSize]byte)
			copy(pg[:], m.mem[pn<<pageShift:])
			r.cum[pn] = pg
		}
		m.dirty[w] = 0
	}
	for pn, pg := range m.pages {
		if old := r.cum[pn]; old == nil || *old != *pg {
			cp := new([pageSize]byte)
			*cp = *pg
			r.cum[pn] = cp
		}
	}
	pages := make(map[uint32]*[pageSize]byte, len(r.cum))
	for pn, pg := range r.cum {
		pages[pn] = pg
	}
	r.snaps = append(r.snaps, &Snapshot{
		Instret:     m.instret,
		EligCount:   m.eligCount,
		PC:          m.pc,
		regs:        [isa.NumRegs]uint32(m.regs[:isa.NumRegs]),
		classCounts: m.classCounts,
		inPos:       m.inPos,
		outLen:      len(m.out),
		pages:       pages,
	})
	r.next += r.interval
	if r.maxSnaps > 0 && len(r.snaps) >= 2*r.maxSnaps {
		kept := r.snaps[:0]
		for _, s := range r.snaps {
			if (s.Instret/r.interval)%2 == 0 {
				kept = append(kept, s)
			}
		}
		r.snaps = kept
		r.interval *= 2
		r.next = r.snaps[len(r.snaps)-1].Instret + r.interval
	}
}

// Record executes the program once under cfg, capturing checkpoints per
// opt. cfg.Plan may carry an eligibility mask (so checkpoints learn their
// eligible-stream position) but no injections — the golden pass must be
// fault-free. cfg.MemSize must be page-aligned so the fast/sparse boundary
// coincides with a page boundary.
//
// mark, when given, is a per-text-index mask of sites the caller wants
// located in the eligible stream: afterwards Marked(o) reports whether
// eligible ordinal o retired at a marked site. The campaign engine passes
// the statically benign sites, so pruning costs no extra pass.
func Record(p *isa.Program, cfg Config, opt RecordOptions, mark ...bool) (*Recording, error) {
	opt = opt.withDefaults()
	cfg = cfg.normalize()
	if cfg.MemSize%pageSize != 0 {
		return nil, fmt.Errorf("sim: MemSize %d is not a multiple of the %d-byte page", cfg.MemSize, pageSize)
	}
	if cfg.Plan != nil && len(cfg.Plan.Injections) > 0 {
		return nil, fmt.Errorf("sim: cannot record a golden pass with injections scheduled")
	}
	var elig []bool
	if cfg.Plan != nil {
		elig = cfg.Plan.Eligible
	}
	code := compile(p.Text, elig, nil)
	golden := code
	if len(mark) > 0 {
		golden = compile(p.Text, elig, mark)
	}

	m, buf := newScratch(p, cfg)
	rec := &recorder{
		interval: opt.Interval,
		next:     opt.Interval,
		maxSnaps: opt.MaxSnapshots,
		written:  make([]uint64, len(m.dirty)),
		cum:      make(map[uint32]*[pageSize]byte),
	}
	// The data-segment copy is in the base image, not in any checkpoint.
	copy(rec.written, m.dirty)
	clear(m.dirty)

	// The golden pass runs on the engine in segments that end at the next
	// checkpoint: the segment bound is a budget, and the engine stops
	// exactly on it (mid-pair if need be) with the machine resumable. A
	// segment that times out below the real budget is a checkpoint, not
	// the end of the run.
	start := time.Now()
	for {
		m.cfg.MaxInstr = min(rec.next, cfg.MaxInstr)
		m.runEngine(golden)
		if m.outcome != Timeout || m.instret != rec.next || rec.next >= cfg.MaxInstr {
			break
		}
		m.outcome = OK
		rec.capture(m)
	}
	recordRunMetrics(simRunsRecord, m.instret, time.Since(start))
	simCheckpoints.Add(float64(len(rec.snaps)))

	res := m.result()
	for w, word := range rec.written {
		m.dirty[w] |= word
	}
	buf.release()
	for _, s := range rec.snaps {
		s.out = res.Output[:s.outLen:s.outLen]
	}

	// Build the pristine fast-region image once: the data segment split
	// into shared read-only pages. Restored machines overlay checkpoint
	// pages on top of it. Iterating page numbers covers the final partial
	// page even if DataBase is not page-aligned.
	fastPages := cfg.MemSize >> pageShift
	base := make([]*[pageSize]byte, fastPages)
	if len(p.Data) > 0 {
		first := isa.DataBase >> pageShift
		last := (isa.DataBase + uint32(len(p.Data)) - 1) >> pageShift
		for pn := first; pn <= last; pn++ {
			pg := new([pageSize]byte)
			off := int(pn)<<pageShift - int(isa.DataBase) // data offset of the page start
			dst, src := pg[:], p.Data
			if off >= 0 {
				src = p.Data[off:]
			} else {
				dst = pg[-off:]
			}
			copy(dst, src)
			base[pn] = pg
		}
	}

	strip := cfg
	strip.Plan = nil
	return &Recording{
		Result: res,
		prog:   p,
		cfg:    strip,
		snaps:  rec.snaps,
		base:   base,
		elig:   elig,
		maskFP: maskFingerprint(elig),
		code:   code,
		marks:  m.marks,
	}, nil
}

// Marked reports whether eligible-stream ordinal o (1-based) of the golden
// pass retired at a site of the mark mask passed to Record.
func (r *Recording) Marked(o uint64) bool {
	if o == 0 {
		return false
	}
	w := (o - 1) >> 6
	if w >= uint64(len(r.marks)) {
		return false
	}
	return r.marks[w]>>((o-1)&63)&1 == 1
}

// MarkedExec is how many of the golden pass's eligible executions retired
// at marked sites.
func (r *Recording) MarkedExec() uint64 {
	var n uint64
	for _, word := range r.marks {
		n += uint64(mathbits.OnesCount64(word))
	}
	return n
}

// Snapshots returns the captured checkpoints in execution order.
func (r *Recording) Snapshots() []*Snapshot { return r.snaps }

// SnapshotBefore returns the index of the latest checkpoint strictly
// before the at-th eligible execution (so an injection scheduled at that
// ordinal still fires in the resumed run), or -1 when every checkpoint is
// too late and the trial must run from scratch.
func (r *Recording) SnapshotBefore(at uint64) int {
	lo, hi := 0, len(r.snaps)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.snaps[mid].EligCount < at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// RunFrom resumes execution from checkpoint idx under a trial plan and
// instruction budget; idx -1 runs from scratch. The plan's eligibility
// mask must be the one the golden pass was recorded with — checkpoint
// eligible-stream positions are meaningless under any other mask — and a
// restore under a plan whose mask content differs panics rather than
// silently producing garbage (the masks are compared by fingerprint, so
// an equal copy of the recorded mask is fine).
//
// Each call builds and discards the per-trial machine state; callers
// running many trials against one recording should hold a Runner
// (NewRunner) instead, which reuses that state across trials.
func (r *Recording) RunFrom(idx int, plan *FaultPlan, maxInstr uint64) Result {
	rn := r.NewRunner()
	defer rn.Close()
	return rn.RunFrom(idx, plan, maxInstr)
}
