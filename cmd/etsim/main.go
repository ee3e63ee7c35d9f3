// Command etsim runs a program on the functional simulator.
//
// Usage:
//
//	etsim [-in input.bin] [-max N] [-errors N -seed S [-unprotected]] prog.{mc,s}
//
// MiniC sources (.mc) are compiled first; anything else is treated as
// assembly. The program's output bytes go to stdout; run statistics and
// diagnostics go to stderr. With -errors, single-bit faults are injected
// into the analysis-tagged instructions (or all arithmetic with
// -unprotected); -max then bounds the clean run, and the faulty run gets
// the campaign engine's budget (16x the clean run plus 10M instructions).
//
// Exit codes: 0 for a run that completed normally, 1 for a simulated
// crash/hang or any tool error (compile failure, unreadable input, failed
// campaign setup), 2 for usage errors. Errors never exit 0, so campaign
// scripts can trust the status.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"etap/internal/asm"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/isa"
	"etap/internal/minic"
	"etap/internal/sim"
	"etap/internal/version"
)

func main() {
	inFile := flag.String("in", "", "input stream file")
	maxInstr := flag.Uint64("max", 0, "instruction budget (0 = default)")
	errors := flag.Int("errors", 0, "single-bit errors to inject")
	seed := flag.Int64("seed", 1, "injection seed")
	unprotected := flag.Bool("unprotected", false, "inject into all arithmetic instructions")
	policy := flag.String("policy", "control+addr", "analysis policy: control, control+addr, conservative")
	showVersion := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *showVersion {
		version.Fprint(os.Stdout, "etsim")
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: etsim [flags] prog.{mc,s}")
		os.Exit(2)
	}
	pol, ok := core.ParsePolicy(*policy)
	if !ok {
		fmt.Fprintf(os.Stderr, "etsim: unknown -policy %q (have control, control+addr, conservative)\n", *policy)
		os.Exit(2)
	}

	res, err := run(flag.Arg(0), *inFile, *maxInstr, *errors, *seed, *unprotected, pol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etsim:", err)
		os.Exit(1)
	}
	os.Stdout.Write(res.Output)
	fmt.Fprintf(os.Stderr, "outcome: %s", res.Outcome)
	if res.Outcome == sim.Crash {
		fmt.Fprintf(os.Stderr, " (%s)", res.Trap)
	}
	fmt.Fprintf(os.Stderr, "; exit=%d; instructions=%d; injected=%d\n",
		res.ExitCode, res.Instret, res.Injected)
	if res.Outcome != sim.OK {
		os.Exit(1)
	}
}

func run(progFile, inFile string, maxInstr uint64, errors int, seed int64, unprotected bool, pol core.Policy) (sim.Result, error) {
	srcBytes, err := os.ReadFile(progFile)
	if err != nil {
		return sim.Result{}, err
	}
	var prog *isa.Program
	if strings.HasSuffix(progFile, ".mc") {
		prog, err = minic.Build(string(srcBytes))
	} else {
		prog, err = asm.Assemble(string(srcBytes))
	}
	if err != nil {
		return sim.Result{}, err
	}

	var input []byte
	if inFile != "" {
		input, err = os.ReadFile(inFile)
		if err != nil {
			return sim.Result{}, err
		}
	}

	if errors <= 0 {
		return sim.Run(prog, sim.Config{Input: input, MaxInstr: maxInstr}), nil
	}
	var eligible []bool
	if unprotected {
		eligible = core.EligibleAll(prog)
	} else {
		rep, aerr := core.Analyze(prog, pol)
		if aerr != nil {
			return sim.Result{}, aerr
		}
		eligible = rep.Tagged
	}
	if maxInstr != 0 {
		// -max bounds the clean run: a program that cannot finish within
		// it has no golden run to inject against.
		if clean := sim.Run(prog, sim.Config{Input: input, MaxInstr: maxInstr}); clean.Outcome != sim.OK {
			return sim.Result{}, fmt.Errorf("clean run did not complete: %s (budget -max %d)", clean.Outcome, maxInstr)
		}
	}
	eng, err := campaign.New(prog, eligible, sim.Config{Input: input}, campaign.Config{})
	if err != nil {
		return sim.Result{}, err
	}
	return eng.Run(errors, seed), nil
}
