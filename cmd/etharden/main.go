// Command etharden applies the real software protection transforms of
// internal/harden to the bundled benchmarks and reports, per application
// and analysis policy, the realized detection coverage and the
// instruction-count overhead the idealized model of the paper's §4
// hides.
//
// Usage:
//
//	etharden [-app susan[,gsm,...]|all] [-policy control|control+addr|conservative|all]
//	         [-transforms dup+cfs|dup|cfs] [-errors 1] [-trials 200]
//	         [-workers N] [-seed S] [-format text|csv] [-out file]
//
// For every (application, policy) pair the tool hardens the program,
// verifies the hardened zero-fault run is bit-identical to the baseline
// (a rewriter miscompile aborts the run), and then injects -errors
// single-bit faults per trial into the primary copies of the protected
// instructions — exactly the faults the idealized model assumes are
// harmless. Detection coverage is the fraction of trials stopped by a
// trapdet check, with a Wilson 95% confidence interval, and the
// detection-latency p50/p95 (injection to trapdet, in retired
// instructions) bounds the recovery window; crashes, timeouts and silent
// corruptions are escapes. Results go to stdout (or -out), live
// per-trial progress to stderr; SIGINT/SIGTERM cancels between trials
// and the rows finished so far are still exported before the tool exits
// non-zero. The exit code is non-zero on any failure.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/exp"
	"etap/internal/harden"
	"etap/internal/minic"
	"etap/internal/sim"
	"etap/internal/termprog"
	"etap/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "etharden:", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError string

func (e usageError) Error() string { return string(e) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("etharden", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appFlag := fs.String("app", "all", "benchmark names, comma-separated, or 'all'")
	policyFlag := fs.String("policy", "all", "analysis policy: control, control+addr, conservative or all")
	transforms := fs.String("transforms", "dup+cfs", "protection transforms: dup+cfs, dup or cfs")
	errorsN := fs.Int("errors", 1, "bit flips per trial")
	trials := fs.Int("trials", 200, "trial budget per (app, policy) point")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; never changes results)")
	seed := fs.Int64("seed", 1, "campaign seed")
	format := fs.String("format", "text", "output format: text or csv")
	outFile := fs.String("out", "", "write results to this file instead of stdout")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *showVersion {
		version.Fprint(stdout, "etharden")
		return nil
	}

	sel, err := all.Parse(*appFlag)
	if err != nil {
		return usageError(err.Error())
	}
	policies, err := parsePolicies(*policyFlag)
	if err != nil {
		return err
	}
	opts, ok := harden.ParseOptions(*transforms)
	if !ok {
		return usageError(fmt.Sprintf("unknown -transforms %q (have dup+cfs, dup, cfs)", *transforms))
	}
	if *format != "text" && *format != "csv" {
		return usageError(fmt.Sprintf("unknown -format %q (have text, csv)", *format))
	}
	if *trials <= 0 {
		return usageError("-trials must be positive")
	}
	if *errorsN <= 0 {
		return usageError("-errors must be positive")
	}

	out := stdout
	if *outFile != "" {
		f, cerr := os.Create(*outFile)
		if cerr != nil {
			return cerr
		}
		defer f.Close()
		out = f
	}

	table := newReport(opts, *errorsN)
	tmpl := campaign.Point{Errors: *errorsN, HiBit: 31, MaxTrials: *trials, Seed: *seed, Workers: *workers}
	for _, a := range sel {
		if ctx.Err() != nil {
			break
		}
		prog, err := minic.Build(a.Source())
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name(), err)
		}
		base := sim.Run(prog, sim.Config{Input: a.Input()})
		if base.Outcome != sim.OK {
			return fmt.Errorf("%s: baseline run %s", a.Name(), base.Outcome)
		}
		for _, pol := range policies {
			if ctx.Err() != nil {
				break
			}
			sub, err := campaign.Analyze(prog, pol)
			if err == nil {
				sub, err = sub.Harden(opts)
			}
			if err != nil {
				return fmt.Errorf("%s (%s): %w", a.Name(), pol, err)
			}
			eng, err := sub.Engine(campaign.Detection, a.Input(), nil, campaign.Config{})
			if err != nil {
				return fmt.Errorf("%s (%s): %w", a.Name(), pol, err)
			}
			res := sub.Hardened

			// Differential gate: the hardened program must be a faithful
			// compile of the original before its coverage means anything.
			// The engine's golden pass is bit-identical to a plain run, so
			// it doubles as the hardened zero-fault reference.
			hard := eng.Clean
			if hard.ExitCode != base.ExitCode || !bytes.Equal(hard.Output, base.Output) {
				return fmt.Errorf("%s (%s): hardened zero-fault run diverged from baseline", a.Name(), pol)
			}
			sites := 0
			for _, on := range res.PrimaryProtected {
				if on {
					sites++
				}
			}
			fmt.Fprintf(stderr, "[%s/%s] verified bit-identical; %d protected sites (%d duplicated, %d checks), overhead %.2fx static %.2fx dynamic\n",
				a.Name(), pol, sites, res.DupSites, res.Checks,
				res.StaticOverhead(), float64(hard.Instret)/float64(base.Instret))

			start := time.Now()
			prog := termprog.New(stderr)
			pt := eng.RunPoint(ctx, tmpl, func(trial int, tr campaign.Trial) {
				prog.Printf("[%s/%s] trial %d/%d", a.Name(), pol, trial+1, *trials)
			})
			prog.Clear()
			note := ""
			if pt.Cancelled {
				note = " (cancelled)"
			}
			fmt.Fprintf(stderr, "[%s/%s] %d trials: %.1f%% detected [%.1f, %.1f] latency p50=%d p95=%d in %.2fs%s\n",
				a.Name(), pol, pt.Trials, pt.DetectPct, pt.DetectLowPct, pt.DetectHighPct,
				pt.DetectLatencyP50, pt.DetectLatencyP95,
				time.Since(start).Seconds(), note)

			table.Rows = append(table.Rows, reportRow(a.Name(), pol, sites,
				res.StaticOverhead(), float64(hard.Instret)/float64(base.Instret), pt))
		}
	}

	if *format == "csv" {
		err = exp.WriteCSV(out, []*exp.Report{table})
	} else {
		_, err = io.WriteString(out, table.RenderText())
	}
	if err != nil {
		return err
	}
	return ctx.Err()
}

// newReport starts the coverage table: one row per (application,
// policy) pair, under the two-line preamble as its title.
func newReport(opts harden.Options, errors int) *exp.Report {
	return &exp.Report{
		ID: "harden",
		Title: fmt.Sprintf("Realized protection (%s transforms), %d error(s) per trial into protected primaries.\n", opts, errors) +
			"The idealized model assumes 100% coverage and 1.00x overhead for these faults.",
		Kind: exp.KindTable,
		Columns: []exp.Column{
			{Name: "App"}, {Name: "Policy"}, {Name: "Sites", Unit: "count"},
			{Name: "Static", Unit: "x"}, {Name: "Dynamic", Unit: "x"},
			{Name: "Coverage", Unit: "%"}, {Name: "95% CI"},
			{Name: "Lat p50", Unit: "instructions"}, {Name: "Lat p95", Unit: "instructions"},
			{Name: "Crash", Unit: "count"}, {Name: "Timeout", Unit: "count"},
			{Name: "SDC", Unit: "count"}, {Name: "Masked", Unit: "count"},
		},
	}
}

// reportRow is one (application, policy) measurement.
func reportRow(app string, pol core.Policy, sites int, staticOvh, dynamicOvh float64, p campaign.PointResult) []exp.Cell {
	return []exp.Cell{
		exp.CellStr(app),
		exp.CellStr(pol.String()),
		exp.CellInt(sites),
		exp.CellNum(fmt.Sprintf("%.2fx", staticOvh), staticOvh),
		exp.CellNum(fmt.Sprintf("%.2fx", dynamicOvh), dynamicOvh),
		exp.CellCI(fmt.Sprintf("%.1f%%", p.DetectPct), p.DetectPct, p.DetectLowPct, p.DetectHighPct),
		exp.CellStr(fmt.Sprintf("[%.1f, %.1f]", p.DetectLowPct, p.DetectHighPct)),
		exp.CellInt(int(p.DetectLatencyP50)),
		exp.CellInt(int(p.DetectLatencyP95)),
		exp.CellInt(p.Crashes),
		exp.CellInt(p.Timeouts),
		exp.CellInt(p.Completed - p.Masked),
		exp.CellInt(p.Masked),
	}
}

func parsePolicies(s string) ([]core.Policy, error) {
	if s == "all" {
		return []core.Policy{core.PolicyControl, core.PolicyControlAddr, core.PolicyConservative}, nil
	}
	p, ok := core.ParsePolicy(s)
	if !ok {
		return nil, usageError(fmt.Sprintf("unknown -policy %q (have control, control+addr, conservative, all)", s))
	}
	return []core.Policy{p}, nil
}
