// Command etserve runs the HTTP characterization service: the etap
// campaign surface behind a JSON API. Clients POST source + policy +
// campaign options to /api/v1/jobs, poll job status, stream per-trial
// progress over SSE (disconnecting a ?cancel=1 stream cancels the
// campaign between trials), and fetch the final report as JSON, CSV or
// text. All jobs share one Lab, so identical (source, policy, harden)
// keys compile exactly once. See docs/SERVE.md for the wire surface and
// a curl walkthrough.
//
// Usage:
//
//	etserve [-addr :8372] [-workers N] [-queue N]
//	        [-state jobs.json] [-lab-capacity N] [-quiet]
//	        [-otlp http://collector:4318] [-trace-sample 0.1]
//
// SIGINT/SIGTERM shuts down gracefully: running campaigns stop between
// trials, their partial aggregates persist as cancelled, and -state
// gets a final snapshot so a restarted server still answers for
// finished jobs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"etap"
	"etap/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "etserve:", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError string

func (e usageError) Error() string { return string(e) }

func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("etserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8372", "listen address")
	workers := fs.Int("workers", 0, "concurrent campaign workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "queued-job bound before submissions get 503 (0 = 64)")
	state := fs.String("state", "", "persist the job table to this JSON file (restart-safe)")
	labCapacity := fs.Int("lab-capacity", etap.DefaultLabCapacity, "Lab entries (compiled systems and campaign engines together) before LRU eviction (<= 0 = unbounded)")
	maxJobs := fs.Int("max-jobs", 0, "job-table bound; oldest finished jobs evict past it (0 = 1024, < 0 = unbounded)")
	pprofFlag := fs.Bool("pprof", false, "mount /debug/pprof/ (exposes internals; keep off on public deployments)")
	otlp := fs.String("otlp", "", "push sampled traces to this OTLP/HTTP JSON collector (e.g. http://collector:4318)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of traces exported over OTLP (0 = all, < 0 = none); GET /traces always works")
	jsonLog := fs.Bool("log-json", false, "emit structured JSON logs instead of key=value text lines")
	quiet := fs.Bool("quiet", false, "suppress per-job log lines")
	showVersion := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *showVersion {
		version.Fprint(os.Stdout, "etserve")
		return nil
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected arguments: %v", fs.Args()))
	}

	logger := slog.New(slog.NewTextHandler(stderr, nil))
	switch {
	case *quiet:
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	case *jsonLog:
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	opts := []etap.ServeOption{
		etap.WithServeLab(etap.NewLabCapacity(*labCapacity)),
		etap.WithServeWorkers(*workers),
		etap.WithServeQueueDepth(*queue),
		etap.WithServeMaxJobs(*maxJobs),
		etap.WithServeLogger(logger),
	}
	if *pprofFlag {
		opts = append(opts, etap.WithServePprof())
	}
	if *state != "" {
		opts = append(opts, etap.WithServeStateFile(*state))
	}
	if *otlp != "" {
		opts = append(opts, etap.WithServeOTLP(*otlp))
	}
	if *traceSample != 0 {
		opts = append(opts, etap.WithServeTraceSample(*traceSample))
	}
	logger.Info("listening", "addr", *addr, "state", orNone(*state))
	return etap.Serve(ctx, *addr, opts...)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
