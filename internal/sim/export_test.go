package sim

import "etap/internal/isa"

// ReferenceRun executes the program on the reference interpreter
// (reference_test.go), the oracle the engine is pinned against.
func ReferenceRun(p *isa.Program, cfg Config) Result { return referenceRun(p, cfg) }

// ReferenceSites returns the text index of every eligible instruction the
// reference interpreter retires under cfg, in eligible-stream order: entry
// o-1 is the site of eligible ordinal o.
func ReferenceSites(p *isa.Program, cfg Config) []int {
	m, rn := referenceMachine(p, cfg)
	defer rn.Close()
	var sites []int
	m.run(func(pc int) { sites = append(sites, pc) })
	return sites
}

// State is the architectural state a checkpoint captures. Pages holds
// every nonzero page of the address space, fast region and sparse alike.
type State struct {
	Regs        [isa.NumRegs]uint32
	PC          int
	Instret     uint64
	EligCount   uint64
	ClassCounts [6]uint64
	InPos       int
	Output      []byte
	Pages       map[uint32][pageSize]byte
}

// ReferenceStates runs the reference interpreter under cfg and calls visit
// with its state each time the retirement count reaches the next of stops
// (ascending): the run is budgeted to that stop, times out there, and
// resumes. It reports how many stops were reached before the run ended.
func ReferenceStates(p *isa.Program, cfg Config, stops []uint64, visit func(i int, s State)) int {
	m, rn := referenceMachine(p, cfg)
	defer rn.Close()
	for i, stop := range stops {
		m.cfg.MaxInstr = stop
		m.run(nil)
		if m.outcome != Timeout || m.instret != stop {
			return i
		}
		m.outcome = OK
		visit(i, m.state())
	}
	return len(stops)
}

func (m *machine) state() State {
	s := State{
		Regs:        [isa.NumRegs]uint32(m.regs[:isa.NumRegs]),
		PC:          m.pc,
		Instret:     m.instret,
		EligCount:   m.eligCount,
		ClassCounts: m.classCounts,
		InPos:       m.inPos,
		Output:      append([]byte(nil), m.out...),
		Pages:       map[uint32][pageSize]byte{},
	}
	for pn, pg := range m.pageTab {
		if pg != nil {
			addNonzero(s.Pages, uint32(pn), pg)
		}
	}
	for pn, pg := range m.roSparse {
		addNonzero(s.Pages, pn, pg)
	}
	for pn, pg := range m.pages {
		addNonzero(s.Pages, pn, pg)
	}
	return s
}

// RestoredState restores checkpoint idx on the runner, as a trial would,
// and flattens the machine before it runs a single instruction.
func (rn *Runner) RestoredState(idx int) State {
	rn.RunFrom(idx, nil, rn.rec.snaps[idx].Instret)
	return rn.m.state()
}

// KeyframeEvery is the delta-chain bound of stored checkpoint pages.
const KeyframeEvery = keyframeEvery

// MaxChainDepth is the longest delta chain any checkpoint's page version
// sits on: 0 when every stored page is a keyframe.
func (r *Recording) MaxChainDepth() int {
	d := 0
	for _, s := range r.snaps {
		for _, v := range s.pages {
			d = max(d, v.depth)
		}
	}
	return d
}

// SnapshotState flattens checkpoint idx into a State: the base image
// overlaid with the checkpoint's pages.
func (r *Recording) SnapshotState(idx int) State {
	snap := r.snaps[idx]
	s := State{
		Regs:        snap.regs,
		PC:          snap.PC,
		Instret:     snap.Instret,
		EligCount:   snap.EligCount,
		ClassCounts: snap.classCounts,
		InPos:       snap.inPos,
		Output:      append([]byte(nil), snap.out...),
		Pages:       map[uint32][pageSize]byte{},
	}
	for pn, pg := range r.base {
		if pg != nil && snap.pages[uint32(pn)] == nil {
			addNonzero(s.Pages, uint32(pn), pg)
		}
	}
	for pn, v := range snap.pages {
		var pg [pageSize]byte
		v.materialize(&pg)
		addNonzero(s.Pages, pn, &pg)
	}
	return s
}

func addNonzero(pages map[uint32][pageSize]byte, pn uint32, pg *[pageSize]byte) {
	if *pg != ([pageSize]byte{}) {
		pages[pn] = *pg
	}
}
