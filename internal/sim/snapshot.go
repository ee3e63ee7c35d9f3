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
// golden pass without duplicating the address space. A page the pass
// rewrites is stored as the byte runs that changed since its previous
// version, with a full keyframe at least every keyframeEvery versions
// (pageVersion); a restore materializes such pages into the runner's
// private pages before the run starts. Restored runs are
// bit-identical to from-scratch runs — same Result down to output bytes,
// trap details and per-class instruction counts — which the campaign
// engine's determinism tests assert across every benchmark.
package sim

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
	"slices"
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
	pages       map[uint32]*pageVersion
}

// keyframeEvery bounds a page's delta chain: at least every
// keyframeEvery-th stored version of a page is a full keyframe, so a
// restore applies at most keyframeEvery-1 deltas to rebuild a page.
// Golden passes change 6–192 bytes of a rewritten page between
// checkpoints (docs/PERF.md), so a chain of 32 stores a page version in
// a few hundred bytes instead of 4 KiB.
const keyframeEvery = 32

// pageVersion is one stored image of a page. A keyframe holds the whole
// image in full; a delta holds, in runs, the bytes that differ from
// prev, the page's previous stored version. Versions are immutable once
// Record returns; only the recorder's thinning re-encodes them.
type pageVersion struct {
	full  *[pageSize]byte
	prev  *pageVersion
	runs  []byte // records of offset (u16), length (u16), then the bytes
	depth int    // deltas since the keyframe; 0 for a keyframe
}

// materialize writes the version's image into dst.
func (v *pageVersion) materialize(dst *[pageSize]byte) {
	if v.full != nil {
		*dst = *v.full
		return
	}
	v.prev.materialize(dst)
	applyDelta(dst, v.runs)
}

// appendDelta appends to dst the runs of bytes where cur differs from
// old: one record per maximal stretch of differing 8-byte words, trimmed
// to its first and last differing byte.
func appendDelta(dst []byte, old, cur *[pageSize]byte) []byte {
	word := func(pg *[pageSize]byte, i int) uint64 { return binary.LittleEndian.Uint64(pg[i:]) }
	for i := 0; i < pageSize; i += 8 {
		if word(old, i) == word(cur, i) {
			continue
		}
		end := i + 8
		for end < pageSize && word(old, end) != word(cur, end) {
			end += 8
		}
		start := i
		for old[start] == cur[start] {
			start++
		}
		for old[end-1] == cur[end-1] {
			end--
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(start))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(end-start))
		dst = append(dst, cur[start:end]...)
		i = (end + 7) &^ 7 // the loop step moves past the word after the run
	}
	return dst
}

// applyDelta overwrites pg with the runs appendDelta encoded.
func applyDelta(pg *[pageSize]byte, runs []byte) {
	for len(runs) > 0 {
		off := int(binary.LittleEndian.Uint16(runs))
		n := int(binary.LittleEndian.Uint16(runs[2:]))
		copy(pg[off:off+n], runs[4:4+n])
		runs = runs[4+n:]
	}
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
	maskFP uint64            // fingerprint of elig; RunFrom rejects other masks
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

// recorder holds the capture state of a golden pass.
type recorder struct {
	interval uint64
	next     uint64
	maxSnaps int

	latest  map[uint32]*pageVersion    // newest stored version of every page written since run start
	image   map[uint32]*[pageSize]byte // latest's image (a frozen machine page), the base of the next delta
	hist    map[uint32][]*pageVersion  // every live version per page, oldest first
	scratch []byte                     // delta encoding buffer
	snaps   []*Snapshot
}

// capture stores the pages written since the previous checkpoint and
// snapshots the machine state between instructions. The machine's
// private pages — wrTab in the fast region, pages beyond it — are
// exactly the pages written since the last capture: capture freezes
// each one, so the next write to it copy-on-writes again.
func (r *recorder) capture(m *machine) {
	for pn, pg := range m.wrTab {
		if pg != nil {
			m.pageTab[pn] = r.freeze(m, uint32(pn), pg)
			m.wrTab[pn] = nil
		}
	}
	for pn, pg := range m.pages {
		m.roSparse[pn] = r.freeze(m, pn, pg)
	}
	clear(m.pages)
	pages := make(map[uint32]*pageVersion, len(r.latest))
	for pn, v := range r.latest {
		pages[pn] = v
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
		clear(r.snaps[len(kept):])
		r.snaps = kept
		r.interval *= 2
		r.next = r.snaps[len(r.snaps)-1].Instret + r.interval
		r.rechain()
	}
}

// freeze stores the machine's private page pg as page pn's newest
// version — nothing when it equals the latest version, else a delta
// against it, or a keyframe for a page's first version, a chain at its
// bound or a delta no smaller than half a page — and returns the page
// the machine shares read-only from now on. That page is the recorder's
// image of pn, the base of its next delta, so no copy is made; the page
// it supersedes (the previous image, or pg when unchanged) is referenced
// nowhere else and goes to the machine's spare list.
func (r *recorder) freeze(m *machine, pn uint32, pg *[pageSize]byte) *[pageSize]byte {
	img := r.image[pn]
	if img != nil && *img == *pg {
		m.spare = append(m.spare, pg)
		return img
	}
	v := r.encode(r.latest[pn], img, pg)
	if img != nil {
		m.spare = append(m.spare, img)
	}
	r.image[pn] = pg
	r.latest[pn] = v
	r.hist[pn] = append(r.hist[pn], v)
	return pg
}

// encode returns a version holding cur: a delta against prev, whose
// image is old, or a keyframe when prev is nil or a delta does not pay.
func (r *recorder) encode(prev *pageVersion, old, cur *[pageSize]byte) *pageVersion {
	if prev != nil && prev.depth+1 < keyframeEvery {
		r.scratch = appendDelta(r.scratch[:0], old, cur)
		if len(r.scratch) < pageSize/2 {
			return &pageVersion{prev: prev, runs: slices.Clone(r.scratch), depth: prev.depth + 1}
		}
	}
	full := new([pageSize]byte)
	*full = *cur
	return &pageVersion{full: full}
}

// rechain re-encodes every page's chain after thinning so that it runs
// only through versions a surviving checkpoint (or the next delta)
// still references: each kept version becomes a delta against the
// previous kept one, or a keyframe, and the dropped versions become
// garbage. Walking a page's history in order rebuilds each image from
// the old encoding before that version is re-encoded.
func (r *recorder) rechain() {
	kept := make(map[*pageVersion]bool)
	for _, s := range r.snaps {
		for _, v := range s.pages {
			kept[v] = true
		}
	}
	for _, v := range r.latest {
		kept[v] = true
	}
	var img, prevImg [pageSize]byte
	for pn, hist := range r.hist {
		var last *pageVersion
		live := hist[:0]
		for _, v := range hist {
			if v.full != nil {
				img = *v.full
			} else {
				applyDelta(&img, v.runs)
			}
			if !kept[v] {
				continue
			}
			*v = *r.encode(last, &prevImg, &img)
			prevImg, last = img, v
			live = append(live, v)
		}
		clear(hist[len(live):])
		r.hist[pn] = live
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
	if cfg.Plan != nil && len(cfg.Plan.Injections) > 0 {
		return nil, fmt.Errorf("sim: cannot record a golden pass with injections scheduled")
	}
	r, err := newRecording(p, cfg)
	if err != nil {
		return nil, err
	}
	golden := r.code
	if len(mark) > 0 {
		golden = compile(p.Text, r.elig, mark)
	}

	rn := r.NewRunner()
	defer rn.Close()
	m := rn.start(-1, r.cfg)
	rec := &recorder{
		interval: opt.Interval,
		next:     opt.Interval,
		maxSnaps: opt.MaxSnapshots,
		latest:   make(map[uint32]*pageVersion),
		image:    make(map[uint32]*[pageSize]byte),
		hist:     make(map[uint32][]*pageVersion),
	}

	// The golden pass runs on the engine in segments that end at the next
	// checkpoint: the segment bound is a budget, and the engine stops
	// exactly on it (mid-pair if need be) with the machine resumable. A
	// segment that times out below the real budget is a checkpoint, not
	// the end of the run.
	start := time.Now()
	for {
		m.cfg.MaxInstr = min(rec.next, r.cfg.MaxInstr)
		m.runEngine(golden)
		if m.outcome != Timeout || m.instret != rec.next || rec.next >= r.cfg.MaxInstr {
			break
		}
		m.outcome = OK
		rec.capture(m)
	}
	recordRunMetrics(simRunsRecord, m.instret, time.Since(start))
	simCheckpoints.Add(float64(len(rec.snaps)))

	r.Result = m.result()
	for _, s := range rec.snaps {
		s.out = r.Result.Output[:s.outLen:s.outLen]
	}
	r.snaps = rec.snaps
	r.marks = m.marks
	return r, nil
}

// newRecording normalizes cfg and returns what every run starts from
// before any checkpoint exists: the program, its base image, and its
// stream compiled under cfg's eligibility mask, with the plan stripped
// from the stored config. It rejects a MemSize that is not page-aligned,
// so the fast/sparse boundary coincides with a page boundary.
func newRecording(p *isa.Program, cfg Config) (*Recording, error) {
	cfg = cfg.normalize()
	if cfg.MemSize%pageSize != 0 {
		return nil, fmt.Errorf("sim: MemSize %d is not a multiple of the %d-byte page", cfg.MemSize, pageSize)
	}
	var elig []bool
	if cfg.Plan != nil {
		elig = cfg.Plan.Eligible
	}
	cfg.Plan = nil
	return &Recording{
		prog:   p,
		cfg:    cfg,
		base:   baseImage(p, cfg.MemSize),
		elig:   elig,
		maskFP: maskFingerprint(elig),
		code:   compile(p.Text, elig, nil),
	}, nil
}

// baseImage is the pristine fast-region image: the data segment split
// into pages that machines share read-only. Iterating page numbers
// covers the final partial page even if DataBase is not page-aligned.
func baseImage(p *isa.Program, memSize uint32) []*[pageSize]byte {
	base := make([]*[pageSize]byte, memSize>>pageShift)
	if len(p.Data) == 0 {
		return base
	}
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
	return base
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

// ResumeIdx returns the checkpoint a run under plan resumes from: the
// latest one before the plan's first injection (the final one when the
// plan has none) whose Instret is at most maxInstr (0: no bound), or -1
// for a run from scratch. A run from any earlier checkpoint retraces the
// golden pass up to that one, so resuming there gives the same Result;
// the bound keeps a budget timeout at the same instret and pc.
func (r *Recording) ResumeIdx(plan *FaultPlan, maxInstr uint64) int {
	idx := len(r.snaps) - 1
	if plan != nil && len(plan.Injections) > 0 {
		idx = r.SnapshotBefore(plan.Injections[0].At)
	}
	for maxInstr != 0 && idx >= 0 && r.snaps[idx].Instret > maxInstr {
		idx--
	}
	return idx
}

// RunFrom resumes execution from checkpoint idx under a trial plan and
// instruction budget; idx -1 runs from scratch. Either way the run uses
// the recording's own predecoded stream, which counts eligible ordinals
// under the mask the golden pass was recorded with, so the plan must
// carry that mask: a plan whose mask content differs panics at every
// index rather than silently producing garbage (the masks are compared
// by fingerprint, so an equal copy of the recorded mask is fine). A nil
// plan runs with no injections under the recorded mask. To run under any
// other mask, use Run.
//
// Each call builds and discards the per-trial machine state; callers
// running many trials against one recording should hold a Runner
// (NewRunner) instead, which reuses that state across trials.
func (r *Recording) RunFrom(idx int, plan *FaultPlan, maxInstr uint64) Result {
	rn := r.NewRunner()
	defer rn.Close()
	return rn.RunFrom(idx, plan, maxInstr)
}
