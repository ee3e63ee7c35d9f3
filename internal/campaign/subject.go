package campaign

import (
	"fmt"

	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/isa"
	"etap/internal/minic"
	"etap/internal/sim"
)

// Mode is what a campaign injects into: the paper's two configurations
// (§4, Table 2) and the detection campaign over hardened code.
type Mode uint8

const (
	// Protected injects only into analysis-tagged instructions; the rest
	// is assumed protected by redundancy, as in the paper's §4.
	Protected Mode = iota
	// Unprotected injects into every result-writing arithmetic
	// instruction: the unchanged program on unreliable hardware.
	Unprotected
	// Detection injects into the primary copies of a hardened program's
	// duplicated instructions, exactly the faults the idealized model
	// assumes are harmless, and labels each detection with the transform
	// that caught it.
	Detection
)

// String is the mode's report label.
func (m Mode) String() string {
	switch m {
	case Protected:
		return "protected"
	case Unprotected:
		return "unprotected"
	case Detection:
		return "hardened (detection campaign)"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Subject is one program ready for campaigns: the compiled program, its
// control-data analysis and, for a hardened subject, the rewrite that
// produced it. A Subject is immutable once built and safe to share.
type Subject struct {
	Prog *isa.Program
	// Report is Prog's control-data analysis. A Subject without one
	// (built by hand around a program) supports only Unprotected
	// campaigns and cannot be hardened.
	Report *core.Report
	// Hardened is the rewrite Prog came from, nil for an unhardened
	// subject; Detection campaigns need it.
	Hardened *harden.Result
}

// NewSubject compiles MiniC source, analyzes it under policy and, with
// opts non-nil, hardens it (see Harden).
func NewSubject(source string, policy core.Policy, opts *harden.Options) (*Subject, error) {
	prog, err := minic.Build(source)
	if err != nil {
		return nil, err
	}
	s, err := Analyze(prog, policy)
	if err != nil || opts == nil {
		return s, err
	}
	return s.Harden(*opts)
}

// Analyze runs the control-data analysis on a built program.
func Analyze(prog *isa.Program, policy core.Policy) (*Subject, error) {
	rep, err := core.Analyze(prog, policy)
	if err != nil {
		return nil, err
	}
	return &Subject{Prog: prog, Report: rep}, nil
}

// Harden rewrites the subject's program with the transforms opts selects
// and re-analyzes the hardened program under the subject's policy, so
// Protected and Unprotected campaigns on the result run over the
// hardened code.
func (s *Subject) Harden(opts harden.Options) (*Subject, error) {
	res, err := harden.Harden(s.Report, opts)
	if err != nil {
		return nil, err
	}
	rep, err := core.Analyze(res.Prog, s.Report.Policy)
	if err != nil {
		return nil, fmt.Errorf("campaign: hardened program failed re-analysis: %w", err)
	}
	return &Subject{Prog: res.Prog, Report: rep, Hardened: res}, nil
}

// Engine prepares a campaign over the subject on input (one golden
// pass), injecting where mode says and grading completed trials with
// score (nil: bit-exact). It is the one place a mode becomes an
// eligibility mask. Protected needs Report and Detection a hardened
// subject.
func (s *Subject) Engine(mode Mode, input []byte, score ScoreFunc, cfg Config) (*Engine, error) {
	var eligible []bool
	switch mode {
	case Protected:
		eligible = s.Report.Tagged
	case Unprotected:
		eligible = core.EligibleAll(s.Prog)
	case Detection:
		eligible = s.Hardened.PrimaryProtected
	}
	e, err := New(s.Prog, eligible, sim.Config{Input: input}, cfg)
	if err != nil {
		return nil, err
	}
	e.Score = score
	if mode == Detection {
		// Attribute each detection to the transform whose trapdet fired,
		// so latency histograms and trial events split by dup vs cfs.
		res := s.Hardened
		e.DetectClass = func(pc int) string { return res.CheckKindAt(pc).String() }
	}
	return e, nil
}
