// Command etcamp runs fault-injection campaigns on the checkpointed,
// sharded campaign engine and exports each (application, mode) sweep as
// a characterize report (internal/exp) in text, JSON or CSV — the same
// report, byte for byte, that the HTTP service serves for a benchmark
// job with the same options.
//
// Usage:
//
//	etcamp -app susan[,gsm,...|all] [-mode protected|unprotected|both]
//	       [-errors 1,2,5,10] [-trials N] [-ci W] [-min-trials N]
//	       [-workers N] [-seed S] [-policy control|control+addr|conservative]
//	       [-format text|json|csv] [-out file]
//
// Each (application, mode, error-count) point runs up to -trials trials;
// with -ci set, a point stops early once the Wilson 95% confidence
// interval on its catastrophic-failure rate is narrower than W (for any
// worker count, the numbers come out identical). Results go to stdout (or
// -out); live per-trial progress and diagnostics go to stderr. SIGINT or
// SIGTERM cancels the campaign between trials: the points finished so
// far (plus the partial, flagged point) are still exported before the
// tool exits non-zero. The exit code is non-zero on any failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/exp"
	"etap/internal/termprog"
	"etap/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "etcamp:", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError string

func (e usageError) Error() string { return string(e) }

type options struct {
	apps    []apps.App
	modes   []campaign.Mode
	errors  []int
	point   campaign.Point // every point's template; Errors comes from errors
	policy  core.Policy
	format  string
	outFile string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("etcamp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appFlag := fs.String("app", "", "benchmark names, comma-separated, or 'all'")
	modeFlag := fs.String("mode", "both", "eligibility mode: protected, unprotected or both")
	errorsFlag := fs.String("errors", "1,2,5,10", "error counts per trial, comma-separated")
	trials := fs.Int("trials", 100, "trial budget per measurement point")
	minTrials := fs.Int("min-trials", 0, "trial floor before early stopping (0 = engine default)")
	ciWidth := fs.Float64("ci", 0, "early-stop Wilson CI width on the failure and detection rates, as a fraction (0 = run the full budget)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; never changes results)")
	seed := fs.Int64("seed", 1, "campaign seed")
	policy := fs.String("policy", "control+addr", "analysis policy: control, control+addr, conservative")
	format := fs.String("format", "text", "output format: text, json or csv")
	outFile := fs.String("out", "", "write results to this file instead of stdout")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *showVersion {
		version.Fprint(stdout, "etcamp")
		return nil
	}

	opt := options{
		point: campaign.Point{
			HiBit:     31,
			MaxTrials: *trials,
			MinTrials: *minTrials,
			StopWidth: *ciWidth,
			Seed:      *seed,
			Workers:   *workers,
		},
		format:  *format,
		outFile: *outFile,
	}
	var err error
	if *appFlag == "" {
		return usageError("missing -app (try -app all)")
	}
	if opt.apps, err = all.Parse(*appFlag); err != nil {
		return usageError(err.Error())
	}
	if opt.modes, err = parseModes(*modeFlag); err != nil {
		return err
	}
	if opt.errors, err = parseInts(*errorsFlag); err != nil {
		return usageError(fmt.Sprintf("bad -errors: %v", err))
	}
	var ok bool
	if opt.policy, ok = core.ParsePolicy(*policy); !ok {
		return usageError(fmt.Sprintf("unknown -policy %q (have control, control+addr, conservative)", *policy))
	}
	switch opt.format {
	case "text", "json", "csv":
	default:
		return usageError(fmt.Sprintf("unknown -format %q (have text, json, csv)", opt.format))
	}
	if *trials <= 0 {
		return usageError("-trials must be positive")
	}

	// Open the artifact file before running anything so a bad path fails
	// in milliseconds, not after the campaign.
	out := stdout
	if opt.outFile != "" {
		f, cerr := os.Create(opt.outFile)
		if cerr != nil {
			return cerr
		}
		defer f.Close()
		out = f
	}

	reports, err := runCampaigns(ctx, opt, stderr)
	if err != nil {
		return err
	}
	switch opt.format {
	case "json":
		err = exp.WriteJSON(out, reports)
	case "csv":
		err = exp.WriteCSV(out, reports)
	default:
		for _, r := range reports {
			if _, err = io.WriteString(out, r.RenderText()+"\n"); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	// A cancelled campaign still exports what it measured, but exits
	// non-zero so scripts know the sweep is incomplete.
	return ctx.Err()
}

// runCampaigns sweeps every (application, mode) pair and folds each
// sweep into a characterize report, the same report the HTTP service
// serves for a benchmark job.
func runCampaigns(ctx context.Context, opt options, stderr io.Writer) ([]*exp.Report, error) {
	var reports []*exp.Report
	pts := campaign.ErrorPoints(opt.point, opt.errors)
	for _, a := range opt.apps {
		if ctx.Err() != nil {
			break
		}
		sub, err := campaign.NewSubject(a.Source(), opt.policy, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name(), err)
		}
		for _, mode := range opt.modes {
			if ctx.Err() != nil {
				break
			}
			eng, err := sub.Engine(mode, a.Input(), apps.Scorer(a), campaign.Config{})
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", a.Name(), mode, err)
			}
			fmt.Fprintf(stderr, "[%s/%s] golden pass: %d instructions, %d checkpoints, %.1f%% eligible\n",
				a.Name(), mode, eng.Clean.Instret, eng.Checkpoints(), 100*eng.EligibleFraction())
			prog := termprog.New(stderr)
			points := eng.Sweep(ctx, pts, func(i, trial int, tr campaign.Trial) {
				prog.Printf("[%s/%s] errors=%d trial %d/%d", a.Name(), mode, pts[i].Errors, trial+1, opt.point.MaxTrials)
			})
			prog.Clear()
			for _, p := range points {
				note := ""
				if p.EarlyStopped {
					note = " (early stop)"
				}
				if p.Cancelled {
					note = " (cancelled)"
				}
				fmt.Fprintf(stderr, "[%s/%s] errors=%d trials=%d fail=%.1f%% [%.1f, %.1f] accept=%.1f%%%s\n",
					a.Name(), mode, p.Errors, p.Trials, p.FailPct, p.FailLowPct, p.FailHighPct, p.AcceptPct, note)
			}
			reports = append(reports, exp.Characterize(a.Name(), mode.String(), opt.policy.String(), opt.point, points))
		}
	}
	return reports, nil
}

func parseModes(s string) ([]campaign.Mode, error) {
	both := []campaign.Mode{campaign.Protected, campaign.Unprotected}
	if s == "both" {
		return both, nil
	}
	for _, m := range both {
		if m.String() == s {
			return []campaign.Mode{m}, nil
		}
	}
	return nil, usageError(fmt.Sprintf("unknown -mode %q (have protected, unprotected, both)", s))
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("negative error count %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
