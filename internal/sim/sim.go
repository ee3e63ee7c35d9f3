// Package sim executes isa programs functionally, the way the paper uses
// SimpleScalar's sim-safe: no timing, just architectural state, with precise
// detection of the two catastrophic-failure classes the paper measures —
// crashes (traps) and infinite runs (instruction-budget exhaustion).
//
// Memory follows SimpleScalar's lazy-allocation semantics: the entire
// 32-bit space is accessible. Loads from never-written pages return zero
// and stores allocate pages on demand, so a corrupted *data* pointer
// produces garbage data rather than a segmentation fault. Crashes therefore
// come from the same sources they do under sim-safe: jumps outside the text
// segment, misaligned word/halfword accesses, integer division by zero,
// unknown syscalls, and resource exhaustion (a run that scribbles over an
// unreasonable number of pages or emits unbounded output is the moral
// equivalent of the host simulator being OOM-killed). This distinction is
// load-bearing for reproducing the paper: with control data protected, wild
// addresses corrupt fidelity but rarely crash, which is exactly the
// behaviour Table 2 reports.
//
// The simulator also implements the paper's fault model: a FaultPlan marks
// which static instructions are eligible for injection and schedules single
// bit flips at given ordinals of the dynamic eligible-instruction stream.
// A flip XORs one bit into the destination register immediately after
// writeback, so the error propagates architecturally exactly as in §4
// ("once an error was introduced ... it would propagate to all dependent
// instructions").
package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"etap/internal/isa"
)

// Outcome classifies how a run ended.
type Outcome uint8

const (
	// OK means the program exited via the exit syscall.
	OK Outcome = iota
	// Crash means a trap fired: the paper's "crashing" catastrophic failure.
	Crash
	// Timeout means the instruction budget was exhausted: the paper's
	// "infinite execution time" catastrophic failure.
	Timeout
	// Detected means the program executed a trapdet instruction: a
	// redundancy check inserted by the internal/harden rewriter observed a
	// mismatch and stopped the run. It is neither a completion nor a
	// catastrophic failure; campaigns count it as detection coverage.
	Detected
	// Recovered means the run trapped (Detected) at least once, was rolled
	// back to a checkpoint strictly before the detection point, replayed,
	// and finally completed with output bit-identical to the golden run.
	// Only Runner.RunRecover produces it; plain runs never do.
	Recovered
)

func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Crash:
		return "crash"
	case Timeout:
		return "timeout"
	case Detected:
		return "detected"
	case Recovered:
		return "recovered"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// TrapKind identifies the crash cause.
type TrapKind uint8

const (
	TrapNone         TrapKind = iota
	TrapMemAlign              // misaligned word/half access
	TrapMemExhausted          // too many demand-allocated pages
	TrapDivZero               // integer division by zero
	TrapBadPC                 // jump or fall-through outside the text segment
	TrapBadSyscall            // unknown syscall number
	TrapOutputLimit           // unreasonable output volume
)

func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapMemAlign:
		return "misaligned access"
	case TrapMemExhausted:
		return "memory exhausted"
	case TrapDivZero:
		return "division by zero"
	case TrapBadPC:
		return "bad program counter"
	case TrapBadSyscall:
		return "bad syscall"
	case TrapOutputLimit:
		return "output limit exceeded"
	}
	return fmt.Sprintf("trap(%d)", uint8(k))
}

// Trap records crash details.
type Trap struct {
	Kind TrapKind
	PC   int    // text index of the faulting instruction
	Addr uint32 // offending address for memory/pc traps
}

func (t Trap) String() string {
	return fmt.Sprintf("%s at pc=%d addr=0x%x", t.Kind, t.PC, t.Addr)
}

// Syscall numbers (in $v0 at the syscall instruction).
const (
	SysExit  = 1 // a0 = exit status
	SysWrite = 4 // a0 = buffer address, a1 = length; appends to output
	SysRead  = 5 // a0 = buffer address, a1 = max length; v0 = bytes read
)

// Injection schedules one bit flip: after the At-th dynamic execution of an
// eligible instruction (1-based), XOR 1<<Bit into its destination register.
type Injection struct {
	At  uint64
	Bit uint8
}

// FaultPlan describes where errors may strike. Eligible is indexed by text
// position; Injections must be sorted by ascending At. A plan with only
// Eligible set (no injections) is useful for counting the dynamic eligible
// stream length of a clean run.
//
// The Eligible mask must not be mutated once a plan carrying it has been
// recorded: a Recording folds the mask into its compiled instruction
// stream and accepts trial plans that carry the same slice by identity.
type FaultPlan struct {
	Eligible   []bool
	Injections []Injection
}

// Config parameterises one run.
type Config struct {
	// MemSize is the size of the page-table-backed (fast) memory region,
	// which holds the data segment and the stack. Defaults to 8 MiB and
	// must be a multiple of the 4 KiB page. Addresses beyond it fall into
	// demand-allocated sparse pages.
	MemSize uint32
	// MaxInstr is the instruction budget; exceeding it yields Timeout.
	// Defaults to 1<<32.
	MaxInstr uint64
	// MaxOutput caps the output buffer. Defaults to 8 MiB.
	MaxOutput int
	// MaxPages caps demand-allocated sparse pages (4 KiB each) outside the
	// fast region. Defaults to 2048 (8 MiB).
	MaxPages int
	// Input is the byte stream served by the read syscall.
	Input []byte
	// Plan optionally enables fault accounting and injection.
	Plan *FaultPlan
}

// Result is the outcome of a run.
type Result struct {
	Outcome  Outcome
	Trap     Trap
	ExitCode int32
	// Instret is the number of instructions executed.
	Instret uint64
	// EligibleExec is the number of executed instructions whose text slot
	// was marked eligible in the plan.
	EligibleExec uint64
	// Injected is how many scheduled flips actually fired (a run can crash
	// before reaching later injection points).
	Injected int
	// FirstInjectInstret is the value of Instret at the moment the first
	// scheduled flip fired (the flipped instruction had just retired), and
	// 0 when no flip fired.
	FirstInjectInstret uint64
	// DetectInstret is the value of Instret when a trapdet check ended a
	// Detected run, and 0 otherwise. DetectInstret-FirstInjectInstret is
	// the detection latency in retired instructions.
	DetectInstret uint64
	// DetectPC is the text index of the trapdet instruction that ended a
	// Detected run, and -1 otherwise.
	DetectPC int
	// Output is everything the program wrote.
	Output []byte
	// ClassCounts counts executed instructions per isa.Class.
	ClassCounts [6]uint64
	// RecoveryAttempts is how many checkpoint restore-replay rounds the
	// trial consumed (Runner.RunRecover); 0 when recovery is disabled or
	// the run never trapped.
	RecoveryAttempts int
	// RecoverInstret is the total instructions retired across all recovery
	// replays, each counted from its rollback checkpoint — the modeled
	// rollback cost of the trial in re-executed work. The simulator skips
	// the golden prefix of each replay (Runner.RunRecover), so this counts
	// more instructions than the host simulated. The headline Instret
	// field ends at the final replay's retirement count and does not
	// include instructions that earlier, abandoned attempts executed.
	RecoverInstret uint64
}

// DetectLatency is the distance, in retired instructions, between the
// first fired injection and the redundancy check that caught it. It is
// meaningful only for Detected runs with at least one fired flip; ok
// reports whether both ends of the window exist.
func (r Result) DetectLatency() (lat uint64, ok bool) {
	if r.Outcome != Detected || r.Injected == 0 || r.DetectInstret < r.FirstInjectInstret {
		return 0, false
	}
	return r.DetectInstret - r.FirstInjectInstret, true
}

// EligibleFraction is the eligible share of the executed instructions
// (EligibleExec over Instret), 0 for an empty run.
func (r Result) EligibleFraction() float64 {
	if r.Instret == 0 {
		return 0
	}
	return float64(r.EligibleExec) / float64(r.Instret)
}

const pageShift = 12
const pageSize = 1 << pageShift

// normalize fills Config defaults. Run, Record and Runner trials all go
// through it, so the defaulting cannot drift between entry points.
func (c Config) normalize() Config {
	if c.MemSize == 0 {
		c.MemSize = 8 << 20
	}
	if c.MaxInstr == 0 {
		c.MaxInstr = 1 << 32
	}
	if c.MaxOutput == 0 {
		c.MaxOutput = 8 << 20
	}
	if c.MaxPages == 0 {
		c.MaxPages = 2048
	}
	return c
}

// Run executes the program to completion under cfg.
//
// Like every run, Run executes on copy-on-write pages (Runner.start):
// memory starts as the program's base image, the data segment in shared
// read-only pages; pages never written read as zero, and a store copies
// or allocates its page on first write. The fast region must therefore
// end on a page boundary, so an unaligned cfg.MemSize panics with the
// error Record returns for it.
//
// Execution happens on the predecoded engine (predecode.go, engine.go):
// each call compiles the text segment under the plan's eligibility mask
// into a dense superinstruction stream, in time linear in the text, and
// the hot loop dispatches over that. The engine is pinned bit-identical
// to a per-step reference interpreter that lives with the tests
// (TestEngineMatchesReference, FuzzEngineEquivalence).
func Run(p *isa.Program, cfg Config) Result {
	r, err := newRecording(p, cfg)
	if err != nil {
		panic(err)
	}
	return r.RunFrom(-1, cfg.Plan, 0)
}

// result snapshots the machine's architecturally visible end state; Run,
// Record and Recording.RunFrom all report through it.
func (m *machine) result() Result {
	return Result{
		Outcome:            m.outcome,
		Trap:               m.trap,
		ExitCode:           m.exitCode,
		Instret:            m.instret,
		EligibleExec:       m.eligCount,
		Injected:           m.injected,
		FirstInjectInstret: m.firstInjInstret,
		DetectInstret:      m.detectInstret(),
		DetectPC:           m.detectPC(),
		Output:             m.out,
		ClassCounts:        m.classCounts,
	}
}

// detectPC is the trapdet location for Detected runs and -1 otherwise.
func (m *machine) detectPC() int {
	if m.outcome == Detected {
		return m.pc
	}
	return -1
}

// detectInstret is the retirement count at trapdet for Detected runs and 0
// otherwise.
func (m *machine) detectInstret() uint64 {
	if m.outcome == Detected {
		return m.instret
	}
	return 0
}

type machine struct {
	text []isa.Instr
	// regs is the register file, oversized on purpose. Index isa.NumRegs is
	// a write sink: the predecoded engine redirects $zero destinations
	// there, so its writeback is a straight store with no "is this $zero"
	// branch. The array is 256 long so any uint8 register index from a
	// dinstr is provably in range and the compiler drops every bounds
	// check in the hot loop. Only regs[:isa.NumRegs] is architectural; the
	// sink and the slack are never read.
	regs    [256]uint32
	memSize uint32
	pc      int

	// Memory is paged copy-on-write. pageTab and wrTab cover the fast
	// region and are indexed by page number: pageTab maps every present
	// page, wrTab only this machine's private (writable) copies, so a
	// store fast path is a single lookup; a page present in pageTab but
	// not wrTab is shared read-only (a base-image or checkpoint page) and
	// is copied on first write. Beyond the fast region, pages holds the
	// private demand-allocated pages and roSparse the shared ones not yet
	// written (they migrate into pages on first store).
	pageTab  []*[pageSize]byte
	wrTab    []*[pageSize]byte
	pages    map[uint32]*[pageSize]byte
	roSparse map[uint32]*[pageSize]byte
	// spare holds pages the golden pass retired (recorder.freeze), so its
	// copy-on-write reuses them instead of allocating; empty outside
	// Record.
	spare []*[pageSize]byte

	// marks is the golden pass's bitmap over eligible-stream ordinals
	// that retired at a marked site (see mark); nil outside Record.
	marks []uint64

	input []byte
	inPos int
	out   []byte
	cfg   Config

	injections      []Injection
	injected        int
	firstInjInstret uint64
	eligCount       uint64

	instret     uint64
	classCounts [6]uint64

	outcome  Outcome
	trap     Trap
	exitCode int32
}

func (m *machine) fault(kind TrapKind, addr uint32) {
	m.outcome = Crash
	m.trap = Trap{Kind: kind, PC: m.pc, Addr: addr}
}

// load reads size bytes at addr. Aligned accesses never straddle a page.
func (m *machine) load(addr, size uint32) (uint32, bool) {
	if addr%size != 0 {
		m.fault(TrapMemAlign, addr)
		return 0, false
	}
	pg := m.page(addr)
	if pg == nil {
		return 0, true // lazily-allocated memory reads as zero
	}
	buf := pg[addr&(pageSize-1):]
	switch size {
	case 1:
		return uint32(buf[0]), true
	case 2:
		return uint32(binary.LittleEndian.Uint16(buf)), true
	default:
		return binary.LittleEndian.Uint32(buf), true
	}
}

func (m *machine) store(addr, size, val uint32) bool {
	if addr%size != 0 {
		m.fault(TrapMemAlign, addr)
		return false
	}
	buf := m.storeSlot(addr)
	if buf == nil {
		return false
	}
	switch size {
	case 1:
		buf[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(buf, uint16(val))
	default:
		binary.LittleEndian.PutUint32(buf, val)
	}
	return true
}

// storeSlot resolves the writable byte slice backing addr, copying a
// shared page on first write. It returns nil after raising a fault.
func (m *machine) storeSlot(addr uint32) []byte {
	pn := addr >> pageShift
	if addr < m.memSize {
		pg := m.wrTab[pn]
		if pg == nil {
			pg = m.newPage(m.pageTab[pn])
			m.pageTab[pn] = pg
			m.wrTab[pn] = pg
		}
		return pg[addr&(pageSize-1):]
	}
	pg, ok := m.pages[pn]
	if !ok {
		if ro, rok := m.roSparse[pn]; rok {
			// Copy-on-write migration keeps the demand-page count equal
			// to what a run that never shared the page would have.
			pg = m.newPage(ro)
			delete(m.roSparse, pn)
		} else {
			if len(m.pages)+len(m.roSparse) >= m.cfg.MaxPages {
				m.fault(TrapMemExhausted, addr)
				return nil
			}
			pg = m.newPage(nil)
		}
		m.pages[pn] = pg
	}
	return pg[addr&(pageSize-1):]
}

// newPage returns a private page holding a copy of src, or zeroes when
// src is nil: a spare page if there is one, else a fresh one.
func (m *machine) newPage(src *[pageSize]byte) *[pageSize]byte {
	var pg *[pageSize]byte
	if n := len(m.spare); n > 0 {
		pg, m.spare = m.spare[n-1], m.spare[:n-1]
		if src == nil {
			*pg = [pageSize]byte{}
		}
	} else {
		pg = new([pageSize]byte)
	}
	if src != nil {
		*pg = *src
	}
	return pg
}

// page returns the page backing addr for reading, or nil when it was
// never written (and so reads as zero).
func (m *machine) page(addr uint32) *[pageSize]byte {
	pn := addr >> pageShift
	if addr < m.memSize {
		return m.pageTab[pn]
	}
	if pg, ok := m.pages[pn]; ok {
		return pg
	}
	return m.roSparse[pn]
}

// peek reads one byte honouring the sparse model (absent pages read as
// zero).
func (m *machine) peek(a uint32) byte {
	if pg := m.page(a); pg != nil {
		return pg[a&(pageSize-1)]
	}
	return 0
}

// readBytes copies n bytes starting at addr for the write syscall,
// honouring the sparse model (absent pages read as zero).
func (m *machine) readBytes(dst []byte, addr uint32) {
	for i := range dst {
		dst[i] = m.peek(addr + uint32(i))
	}
}

func (m *machine) writeBytes(src []byte, addr uint32) bool {
	for i := range src {
		if !m.store(addr+uint32(i), 1, uint32(src[i])) {
			return false
		}
	}
	return true
}

func (m *machine) setReg(r isa.Reg, v uint32) {
	if r != isa.RegZero {
		m.regs[r] = v
	}
}

func f32(b uint32) float32  { return math.Float32frombits(b) }
func bits(f float32) uint32 { return math.Float32bits(f) }

func sdiv(a, b int32) int32 {
	if a == math.MinInt32 && b == -1 {
		return math.MinInt32 // MIPS leaves this unpredictable; pin it
	}
	return a / b
}

func srem(a, b int32) int32 {
	if a == math.MinInt32 && b == -1 {
		return 0
	}
	return a % b
}

// codeIdx converts an architectural code address to a text index.
func codeIdx(addr uint32) int { return int(int64(addr) - int64(isa.TextBase)) }

// maxSyscallLen bounds a single read/write syscall; a corrupted length
// register asking for more is treated as the host refusing the allocation.
const maxSyscallLen = 4 << 20

func (m *machine) syscall() bool {
	r := &m.regs
	switch r[isa.RegV0] {
	case SysExit:
		m.outcome = OK
		m.exitCode = int32(r[isa.RegA0])
		return false
	case SysWrite:
		addr, n := r[isa.RegA0], r[isa.RegA1]
		if n > maxSyscallLen || len(m.out)+int(n) > m.cfg.MaxOutput {
			m.fault(TrapOutputLimit, addr)
			return false
		}
		// Reserve in place and copy straight into the output buffer: no
		// per-syscall scratch allocation. slices.Grow always reallocates
		// when capacity is short, so a restored machine sharing a golden
		// prefix (len==cap) never scribbles over the recording's bytes.
		old := len(m.out)
		m.out = slices.Grow(m.out, int(n))[:old+int(n)]
		m.readBytes(m.out[old:], addr)
		m.setReg(isa.RegV0, n)
	case SysRead:
		addr, n := r[isa.RegA0], r[isa.RegA1]
		if n > maxSyscallLen {
			m.fault(TrapOutputLimit, addr)
			return false
		}
		avail := uint32(len(m.input) - m.inPos)
		if n > avail {
			n = avail
		}
		if !m.writeBytes(m.input[m.inPos:m.inPos+int(n)], addr) {
			return false
		}
		m.inPos += int(n)
		m.setReg(isa.RegV0, n)
	default:
		m.fault(TrapBadSyscall, r[isa.RegV0])
		return false
	}
	return true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// f2i truncates a float32 toward zero with saturation, pinning NaN to 0,
// so corrupted float data cannot crash the host simulator.
func f2i(f float32) int32 {
	if f != f {
		return 0
	}
	if f >= math.MaxInt32 {
		return math.MaxInt32
	}
	if f <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(f)
}

// faultAt is fault with an explicit faulting pc, for the engine loop which
// keeps the program counter in a local.
func (m *machine) faultAt(kind TrapKind, pc int, addr uint32) {
	m.pc = pc
	m.fault(kind, addr)
}
