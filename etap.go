// Package etap reproduces "Characterization of Error-Tolerant Applications
// when Protecting Control Data" (Thaker et al., IISWC 2006): a toolchain
// that compiles C-like programs to a MIPS-like ISA, statically identifies
// the instructions that cannot influence control flow (the paper's CVar
// def-use analysis), and characterizes application fidelity under
// single-bit fault injection with and without control-data protection.
//
// The public API covers the full pipeline:
//
//	sys, _ := etap.Build(source, etap.PolicyControlAddr)
//	fmt.Println(sys.Stats())            // how much is low-reliability
//	camp, _ := sys.NewCampaign(input, true)
//	res := camp.Run(10, 42)             // 10 bit flips, seed 42
//
// The seven benchmark applications of the paper's Table 1 are available
// through Benchmarks, and the paper's tables and figures can be regenerated
// through the Experiments registry (ExperimentByID(id).Run). Everything underneath lives in internal/ packages:
// the ISA and assembler, the functional simulator with SimpleScalar-style
// lazy memory and checkpoint/restore, the MiniC compiler, the control-data
// analysis, the fault injector, the campaign engine, the fidelity
// measures, and the experiment harness.
//
// Campaigns run on a checkpointed, sharded engine: one golden pass records
// copy-on-write machine checkpoints, each faulty trial resumes from the
// checkpoint nearest its injection point, and multi-trial measurement
// points (RunPoint, Sweep) fan out over a worker pool with per-shard
// deterministic RNG streams and online Wilson-interval aggregation. See
// docs/CAMPAIGN.md for the architecture, and cmd/etcamp for the CLI that
// exports campaign artifacts as JSON or CSV.
package etap

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/isa"
	"etap/internal/minic"
	"etap/internal/sim"
)

// Policy selects the protection policy of the static analysis.
type Policy int

const (
	// PolicyControl is the paper's Section 3 analysis: only control
	// instructions (branches, indirect jumps, syscalls, faultable
	// divisions) seed the CVar set, and definitions propagate backward
	// through registers. Memory is untracked.
	PolicyControl Policy = iota
	// PolicyControlAddr additionally protects every memory-address
	// computation. It is the default for reproducing the paper's
	// failure-rate results (see DESIGN.md).
	PolicyControlAddr
	// PolicyConservative additionally protects every stored value, closing
	// the memory-aliasing hole at the cost of tagging almost nothing.
	PolicyConservative
)

func (p Policy) String() string { return toCore(p).String() }

// ParsePolicy resolves a policy name as printed by Policy.String
// ("control", "control+addr", "conservative").
func ParsePolicy(s string) (Policy, bool) {
	switch cp, ok := core.ParsePolicy(s); {
	case !ok:
		return 0, false
	case cp == core.PolicyControlAddr:
		return PolicyControlAddr, true
	case cp == core.PolicyConservative:
		return PolicyConservative, true
	default:
		return PolicyControl, true
	}
}

func toCore(p Policy) core.Policy {
	switch p {
	case PolicyControlAddr:
		return core.PolicyControlAddr
	case PolicyConservative:
		return core.PolicyConservative
	default:
		return core.PolicyControl
	}
}

// Outcome classifies a simulated run.
type Outcome int

const (
	// Completed means the program exited normally.
	Completed Outcome = iota
	// Crashed means a trap fired (bad jump, misaligned access, division by
	// zero, bad syscall, resource exhaustion) — the paper's "crashing"
	// catastrophic failure.
	Crashed
	// TimedOut means the instruction budget was exhausted — the paper's
	// "infinite execution time" catastrophic failure.
	TimedOut
	// Detected means a hardened program's redundancy check caught a
	// mismatch and stopped the run (see System.Harden). Unhardened
	// programs never report it.
	Detected
	// Recovered means a detected trial was rolled back to a checkpoint,
	// replayed, and completed with output bit-identical to the fault-free
	// run. Only campaigns configured with WithRecovery report it.
	Recovered
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Crashed:
		return "crashed"
	case TimedOut:
		return "timed out"
	case Detected:
		return "detected"
	case Recovered:
		return "recovered"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// RunResult reports one simulated execution.
type RunResult struct {
	Outcome      Outcome
	Output       []byte
	ExitCode     int32
	Instructions uint64
	// InjectedErrors is how many scheduled bit flips actually fired before
	// the run ended.
	InjectedErrors int
	// TrapDescription explains a crash ("bad program counter at pc=...").
	TrapDescription string
}

func fromSim(r sim.Result) RunResult {
	out := RunResult{
		Outcome:        outcomeFromSim(r.Outcome),
		Output:         r.Output,
		ExitCode:       r.ExitCode,
		Instructions:   r.Instret,
		InjectedErrors: r.Injected,
	}
	if r.Outcome == sim.Crash {
		out.TrapDescription = r.Trap.String()
	}
	return out
}

// AnalysisStats summarizes the control-data analysis of a program.
type AnalysisStats struct {
	// TextInstructions is the static instruction count.
	TextInstructions int
	// TaggedStatic counts instructions tagged low-reliability (legal
	// injection sites under protection).
	TaggedStatic int
	// ControlSliceStatic counts instructions in the control slice.
	ControlSliceStatic int
	// TolerantFunctions counts functions the programmer marked tolerant.
	TolerantFunctions int
}

// System is a compiled and analyzed program.
type System struct {
	prog   *isa.Program
	report *core.Report
}

// Build compiles MiniC source and runs the control-data analysis under the
// given policy. The source marks error-tolerant functions with the
// `tolerant` qualifier; only instructions inside those functions can be
// tagged low-reliability.
func Build(source string, policy Policy) (*System, error) {
	prog, err := minic.Build(source)
	if err != nil {
		return nil, err
	}
	rep, err := core.Analyze(prog, toCore(policy))
	if err != nil {
		return nil, err
	}
	return &System{prog: prog, report: rep}, nil
}

// Stats returns the static analysis summary.
func (s *System) Stats() AnalysisStats {
	st := s.report.Stats()
	return AnalysisStats{
		TextInstructions:   st.TextInstrs,
		TaggedStatic:       st.TaggedStatic,
		ControlSliceStatic: st.ControlStatic,
		TolerantFunctions:  st.TolerantFuncs,
	}
}

// Listing renders the annotated disassembly: per instruction, a marker
// ('T' = tagged low-reliability, 'C' = control slice) and the CVar set at
// the point below it, in the bracket notation of the paper's worked
// example.
func (s *System) Listing() string {
	var b strings.Builder
	labels := make(map[int][]string)
	for name, idx := range s.prog.Symbols {
		labels[idx] = append(labels[idx], name)
	}
	for _, names := range labels {
		sort.Strings(names)
	}
	fi := 0
	for idx, in := range s.prog.Text {
		for fi < len(s.prog.Funcs) && s.prog.Funcs[fi].Start == idx {
			f := s.prog.Funcs[fi]
			attr := ""
			if f.Tolerant {
				attr = " tolerant"
			}
			fmt.Fprintf(&b, "\n%s:%s\n", f.Name, attr)
			fi++
		}
		mark := ' '
		switch {
		case s.report.Tagged[idx]:
			mark = 'T'
		case s.report.ControlSlice[idx]:
			mark = 'C'
		}
		fmt.Fprintf(&b, "%6d  %c  %-32s %s\n", idx, mark, isa.Disasm(in), s.report.CVarIn[idx])
	}
	return b.String()
}

// Run executes the program once without fault injection.
func (s *System) Run(input []byte) RunResult {
	return fromSim(sim.Run(s.prog, sim.Config{Input: input}))
}

// RunLimited is Run with an instruction budget: a run retiring more
// than maxInstr instructions ends as TimedOut. It is how services
// validate untrusted programs without betting a worker on termination.
// A maxInstr of zero selects the simulator's default budget (2^32),
// the same bound Run applies.
func (s *System) RunLimited(input []byte, maxInstr uint64) RunResult {
	return fromSim(sim.Run(s.prog, sim.Config{Input: input, MaxInstr: maxInstr}))
}

// HardenOptions selects the software protection transforms System.Harden
// applies (see internal/harden and docs/HARDEN.md). The zero value is
// invalid; DefaultHardenOptions enables both transforms.
type HardenOptions struct {
	// DupCompare duplicates every control-slice computation and compares
	// registers against their shadow copies at control uses (branch
	// inputs, indirect-jump targets, divisors, syscall arguments, and —
	// policy-dependent — address bases and stored values).
	DupCompare bool
	// Signatures inserts control-flow signature checks at basic-block
	// entries, catching control transfers that leave the legal CFG edges.
	Signatures bool
}

// DefaultHardenOptions enables both transforms.
func DefaultHardenOptions() HardenOptions {
	return HardenOptions{DupCompare: true, Signatures: true}
}

// HardenedSystem is a System whose program carries real protection
// transforms instead of the idealized §4 protection model. It behaves
// like any System — Run, NewCampaign, Stats and Listing all operate on
// the hardened program (re-analyzed under the original policy) — and
// additionally exposes the detection-coverage campaign and the overhead
// relative to the original program.
type HardenedSystem struct {
	*System
	base *System
	res  *harden.Result

	// overheadMu guards overheads, the per-input cache of fault-free
	// instruction counts DynamicOverhead compares. Both runs are
	// deterministic for a given input, so they are simulated at most once
	// per input per receiver.
	overheadMu sync.Mutex
	overheads  map[string]overheadRuns
}

// overheadRuns caches the fault-free dynamic instruction counts of the
// original and hardened programs for one input.
type overheadRuns struct {
	base, hardened uint64
}

// Harden rewrites the system's program with the selected transforms. A
// mismatch detected at runtime ends the run with the Detected outcome;
// campaigns on the hardened system count such trials separately from
// completions and catastrophic failures.
func (s *System) Harden(opts HardenOptions) (*HardenedSystem, error) {
	res, err := harden.Harden(s.report, harden.Options(opts))
	if err != nil {
		return nil, err
	}
	rep, err := core.Analyze(res.Prog, s.report.Policy)
	if err != nil {
		return nil, fmt.Errorf("etap: hardened program failed re-analysis: %w", err)
	}
	return &HardenedSystem{
		System: &System{prog: res.Prog, report: rep},
		base:   s,
		res:    res,
	}, nil
}

// StaticOverhead is the hardened/original static instruction-count
// ratio.
func (h *HardenedSystem) StaticOverhead() float64 { return h.res.StaticOverhead() }

// DynamicOverhead returns the hardened/original dynamic
// instruction-count ratio for fault-free runs on the input. The two
// simulations run once per distinct input and are cached on the
// receiver, so repeated calls (overhead tables, concurrent Lab callers)
// cost a map lookup.
func (h *HardenedSystem) DynamicOverhead(input []byte) float64 {
	key := string(input)
	h.overheadMu.Lock()
	runs, ok := h.overheads[key]
	h.overheadMu.Unlock()
	if !ok {
		// Simulate outside the lock: inputs are typically distinct only
		// across callers, and a duplicated race costs two identical
		// deterministic runs, not wrong numbers.
		runs = overheadRuns{
			base:     h.base.Run(input).Instructions,
			hardened: h.Run(input).Instructions,
		}
		h.overheadMu.Lock()
		if h.overheads == nil {
			h.overheads = make(map[string]overheadRuns)
		}
		h.overheads[key] = runs
		h.overheadMu.Unlock()
	}
	if runs.base == 0 {
		return 0
	}
	return float64(runs.hardened) / float64(runs.base)
}

// ProtectedSites is the number of duplicated control-slice instructions.
func (h *HardenedSystem) ProtectedSites() int { return h.res.DupSites }

// MapToOriginal translates a hardened text index to the original
// instruction it was copied from, or -1 for inserted protection code.
func (h *HardenedSystem) MapToOriginal(idx int) int {
	if idx < 0 || idx >= len(h.res.OrigOf) {
		return -1
	}
	return h.res.OrigOf[idx]
}

// NewDetectionCampaign prepares injections against the primary copies of
// the duplicated (protected) instructions: exactly the faults the
// idealized model assumes are harmless. PointStats.DetectPct over such a
// campaign is the transforms' realized detection coverage; crashes,
// timeouts and unacceptable completions are escapes the idealized model
// pretends cannot happen.
func (h *HardenedSystem) NewDetectionCampaign(input []byte) (*Campaign, error) {
	c, err := campaign.New(h.prog, h.res.PrimaryProtected, sim.Config{Input: input}, campaign.Config{})
	if err != nil {
		return nil, err
	}
	// Attribute each detection to the transform whose trapdet fired, so
	// latency histograms and trial events split by dup vs cfs.
	res := h.res
	c.DetectClass = func(pc int) string { return res.CheckKindAt(pc).String() }
	return &Campaign{c: c}, nil
}

// Campaign is a reusable fault-injection setup for one input, backed by
// the checkpointed campaign engine: construction runs one golden pass and
// records copy-on-write checkpoints, and every trial resumes from the
// checkpoint nearest its first injection point.
type Campaign struct {
	c *campaign.Engine
}

// NewCampaign prepares injections against this system. With protected
// true, errors strike only analysis-tagged instructions (the rest is
// assumed protected by redundancy, as in the paper's §4); with protected
// false, every result-writing arithmetic instruction is exposed — the
// unchanged application on unreliable hardware.
func (s *System) NewCampaign(input []byte, protected bool) (*Campaign, error) {
	eligible := s.report.Tagged
	if !protected {
		eligible = core.EligibleAll(s.prog)
	}
	c, err := campaign.New(s.prog, eligible, sim.Config{Input: input}, campaign.Config{})
	if err != nil {
		return nil, err
	}
	return &Campaign{c: c}, nil
}

// CleanOutput is the fault-free output (the golden reference for fidelity
// comparison).
func (c *Campaign) CleanOutput() []byte { return c.c.Clean.Output }

// CleanInstructions is the fault-free dynamic instruction count.
func (c *Campaign) CleanInstructions() uint64 { return c.c.Clean.Instret }

// Checkpoints is the number of machine checkpoints the golden pass
// captured; trials whose injection point lands after a checkpoint skip the
// simulation up to it.
func (c *Campaign) Checkpoints() int { return c.c.Checkpoints() }

// LowReliabilityFraction is the fraction of the dynamic instruction stream
// eligible for injection (Table 3's measure when protection is on).
func (c *Campaign) LowReliabilityFraction() float64 { return c.c.EligibleFraction() }

// SetScore installs the fidelity measure RunPoint and Sweep grade
// completed trials with. Without one, a trial counts as acceptable only
// when its output is bit-identical to the fault-free output.
func (c *Campaign) SetScore(score func(golden, corrupted []byte) (value float64, acceptable bool)) {
	c.c.Score = score
}

// Run injects n single-bit errors, uniformly distributed over the dynamic
// eligible instructions, deterministically in seed.
func (c *Campaign) Run(n int, seed int64) RunResult {
	return fromSim(c.c.Run(n, seed))
}

// PointStats aggregates one measurement point.
type PointStats struct {
	Errors   int
	Trials   int
	Crashes  int
	Timeouts int
	// Detected counts trials a hardened program stopped via a redundancy
	// check; always zero for unhardened systems.
	Detected  int
	Completed int
	// Masked counts completed trials whose output was bit-identical to
	// the fault-free output.
	Masked int
	// Accepted counts completed trials that passed the fidelity
	// threshold.
	Accepted int
	// MeanValue is the mean fidelity value over completed trials (NaN
	// without a scorer or completions).
	MeanValue float64
	FailPct   float64
	AcceptPct float64
	// FailLowPct/FailHighPct bound the catastrophic-failure rate with a
	// Wilson 95% confidence interval.
	FailLowPct  float64
	FailHighPct float64
	// DetectPct is the percentage of trials stopped by redundancy checks,
	// bounded by the Wilson 95% interval [DetectLowPct, DetectHighPct].
	// Over a detection campaign this is the realized detection coverage.
	DetectPct     float64
	DetectLowPct  float64
	DetectHighPct float64
	// DetectLatencyP50/P95 are nearest-rank percentiles, over Detected
	// trials, of the distance (in retired instructions) between the first
	// injected fault and the redundancy check that caught it; 0 when
	// nothing was detected. The window bounds how long corrupted state
	// was live — i.e. how far a checkpoint-rollback recovery must rewind.
	DetectLatencyP50 uint64
	DetectLatencyP95 uint64
	// Recovered counts trials that trapped, rolled back to a checkpoint
	// and completed with output bit-identical to the fault-free run;
	// Degraded counts completions that survived one or more replays with
	// output still differing from it. Both are zero without WithRecovery.
	// RecoveryAttempts totals restore-replay rounds across all trials, and
	// RecoverLatencyP50/P95 are nearest-rank percentiles, over Recovered
	// trials, of the instructions their replays retired.
	Recovered         int
	Degraded          int
	RecoveryAttempts  int
	RecoverPct        float64
	RecoverLowPct     float64
	RecoverHighPct    float64
	RecoverLatencyP50 uint64
	RecoverLatencyP95 uint64
	// Availability accounting in the tolerated/detected/untolerated style:
	// Tolerated = Accepted + Recovered, Untolerated is everything except
	// Tolerated and Detected, and Tolerated + Detected + Untolerated ==
	// Trials. AvailabilityPct = 100 * Tolerated / Trials with a Wilson 95%
	// interval [AvailabilityLowPct, AvailabilityHighPct].
	Tolerated           int
	Untolerated         int
	AvailabilityPct     float64
	AvailabilityLowPct  float64
	AvailabilityHighPct float64
	EarlyStopped        bool
	// Cancelled marks a partial aggregate from a point whose context was
	// cancelled mid-run. Cancelled numbers are not reproducible; an
	// uncancelled re-run of the same point is.
	Cancelled bool
}

func fromPoint(r campaign.PointResult) PointStats {
	return PointStats{
		Errors:           r.Errors,
		Trials:           r.Trials,
		Crashes:          r.Crashes,
		Timeouts:         r.Timeouts,
		Detected:         r.Detected,
		Completed:        r.Completed,
		Masked:           r.Masked,
		Accepted:         r.Accepted,
		MeanValue:        r.MeanValue,
		FailPct:          r.FailPct,
		AcceptPct:        r.AcceptPct,
		FailLowPct:       r.FailLoPct,
		FailHighPct:      r.FailHiPct,
		DetectPct:        r.DetectPct,
		DetectLowPct:     r.DetectLoPct,
		DetectHighPct:    r.DetectHiPct,
		DetectLatencyP50: r.DetectLatencyP50,
		DetectLatencyP95: r.DetectLatencyP95,

		Recovered:           r.Recovered,
		Degraded:            r.Degraded,
		RecoveryAttempts:    r.RecoveryAttempts,
		RecoverPct:          r.RecoverPct,
		RecoverLowPct:       r.RecoverLoPct,
		RecoverHighPct:      r.RecoverHiPct,
		RecoverLatencyP50:   r.RecoverLatencyP50,
		RecoverLatencyP95:   r.RecoverLatencyP95,
		Tolerated:           r.Tolerated,
		Untolerated:         r.Untolerated,
		AvailabilityPct:     r.AvailabilityPct,
		AvailabilityLowPct:  r.AvailabilityLoPct,
		AvailabilityHighPct: r.AvailabilityHiPct,

		EarlyStopped: r.EarlyStopped,
		Cancelled:    r.Cancelled,
	}
}

// RunPoint executes up to WithTrials independent trials with the given
// error count, sharded across the worker pool, and aggregates them
// online. Results depend only on the options, never on scheduling or
// worker count. Cancelling ctx stops the point between trials and
// returns the partial aggregate with Cancelled set.
func (c *Campaign) RunPoint(ctx context.Context, errors int, opts ...Option) PointStats {
	cfg := applyOptions(opts)
	return fromPoint(c.c.RunPoint(ctx, cfg.point(errors), cfg.observer()))
}

// Sweep runs RunPoint for each error count, stopping early (with the
// points so far) when ctx is cancelled.
func (c *Campaign) Sweep(ctx context.Context, errorCounts []int, opts ...Option) []PointStats {
	cfg := applyOptions(opts)
	out := make([]PointStats, 0, len(errorCounts))
	for _, n := range errorCounts {
		if ctx.Err() != nil {
			return out
		}
		out = append(out, fromPoint(c.c.RunPoint(ctx, cfg.point(n), cfg.observer())))
	}
	return out
}

// Benchmark is one of the paper's Table 1 applications.
type Benchmark struct {
	app apps.App
}

// Benchmarks returns the seven applications in Table 1 order.
func Benchmarks() []*Benchmark {
	as := all.Apps()
	out := make([]*Benchmark, len(as))
	for i, a := range as {
		out[i] = &Benchmark{app: a}
	}
	return out
}

// BenchmarkByName fetches one application ("susan", "mpeg", "mcf",
// "blowfish", "gsm", "art", "adpcm").
func BenchmarkByName(name string) (*Benchmark, bool) {
	a, ok := all.ByName(name)
	if !ok {
		return nil, false
	}
	return &Benchmark{app: a}, true
}

// Name is the short identifier.
func (b *Benchmark) Name() string { return b.app.Name() }

// Title describes the application.
func (b *Benchmark) Title() string { return b.app.Title() }

// FidelityName labels the fidelity measure.
func (b *Benchmark) FidelityName() string { return b.app.FidelityName() }

// Source is the application's MiniC program.
func (b *Benchmark) Source() string { return b.app.Source() }

// Input is the deterministic benchmark input.
func (b *Benchmark) Input() []byte { return b.app.Input() }

// Score evaluates a corrupted output against the fault-free output,
// returning the application's fidelity value and whether it passes the
// fidelity threshold.
func (b *Benchmark) Score(golden, corrupted []byte) (value float64, acceptable bool) {
	s := b.app.Score(golden, corrupted)
	return s.Value, s.Acceptable
}

// Build compiles and analyzes the benchmark.
func (b *Benchmark) Build(policy Policy) (*System, error) {
	return Build(b.app.Source(), policy)
}
