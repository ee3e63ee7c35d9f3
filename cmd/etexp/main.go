// Command etexp regenerates the paper's tables and figures through the
// etap/v2 experiment registry.
//
// Usage:
//
//	etexp [-exp all|table1|table2|table3|figure1..figure6|ablation|...]
//	      [-trials N] [-seed S] [-workers N]
//	      [-policy control|control+addr|conservative]
//	      [-format text|json|csv] [-out file]
//
// With -format text (the default) each report renders as the classic
// text table or ASCII chart; json emits one array of structured reports
// (named columns, typed cells with confidence bounds, figure series);
// csv emits one block per report. Live per-trial progress goes to
// stderr, and SIGINT/SIGTERM cancels the run cleanly between trials —
// the partial -out file is never left behind silently (the artifact is
// written only after every requested experiment finished). The exit
// code is non-zero on any failure, including cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"etap"
	"etap/internal/termprog"
	"etap/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "etexp:", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError string

func (e usageError) Error() string { return string(e) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("etexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("exp", "all", "experiment id, comma-separated list, or 'all'")
	trials := fs.Int("trials", 0, "trials per measurement point (0 = default 40)")
	seed := fs.Int64("seed", 0, "injection-schedule seed (0 = default 1)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; never changes results)")
	policy := fs.String("policy", "", "analysis policy: control, control+addr, conservative (default control+addr)")
	format := fs.String("format", "text", "output format: text, json or csv")
	outFile := fs.String("out", "", "also write results to this file")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *showVersion {
		version.Fprint(stdout, "etexp")
		return nil
	}

	switch *format {
	case "text", "json", "csv":
	default:
		return usageError(fmt.Sprintf("unknown -format %q (have text, json, csv)", *format))
	}

	opts := []etap.Option{etap.WithTrials(*trials), etap.WithSeed(*seed), etap.WithWorkers(*workers)}
	if *policy != "" {
		p, ok := etap.ParsePolicy(*policy)
		if !ok {
			return usageError(fmt.Sprintf("unknown -policy %q (have control, control+addr, conservative)", *policy))
		}
		opts = append(opts, etap.WithPolicy(p))
	}

	var selected []etap.Experiment
	if *which == "all" {
		selected = etap.Experiments()
	} else {
		for _, id := range strings.Split(*which, ",") {
			e, ok := etap.ExperimentByID(strings.TrimSpace(id))
			if !ok {
				return usageError(fmt.Sprintf("unknown experiment %q (have %s)",
					strings.TrimSpace(id), strings.Join(etap.ExperimentIDs(), ", ")))
			}
			selected = append(selected, e)
		}
	}

	var reports []*etap.Report
	for _, e := range selected {
		start := time.Now()
		prog := termprog.New(stderr)
		trials := 0
		r, err := e.Run(ctx, append(opts, etap.WithProgress(func(etap.ProgressEvent) {
			// A point restarts trial indices at 0; the running total
			// across all of the experiment's points is the useful live
			// signal.
			trials++
			prog.Printf("[%s] %d trials", e.ID, trials)
		}))...)
		prog.Clear()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		reports = append(reports, r)
		if *format == "text" {
			fmt.Fprint(stdout, r.RenderText()+"\n")
		}
		fmt.Fprintf(stderr, "[%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds())
	}

	switch *format {
	case "json":
		if err := etap.WriteReportsJSON(stdout, reports); err != nil {
			return err
		}
	case "csv":
		if err := etap.WriteReportsCSV(stdout, reports); err != nil {
			return err
		}
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		switch *format {
		case "json":
			err = etap.WriteReportsJSON(f, reports)
		case "csv":
			err = etap.WriteReportsCSV(f, reports)
		default:
			err = writeText(f, reports)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeText renders the text artifact: every report followed by a blank
// line. Unlike pre-v2 etexp -out, the per-report "[id completed in Xs]"
// timing lines are intentionally omitted — they made otherwise-identical
// artifacts diff on every regeneration; timings now go to stderr only.
func writeText(w io.Writer, reports []*etap.Report) error {
	for _, r := range reports {
		if _, err := io.WriteString(w, r.RenderText()+"\n\n"); err != nil {
			return err
		}
	}
	return nil
}
