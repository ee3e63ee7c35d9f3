// Command perfbench is the repository's layered characterization
// benchmark. One invocation runs one named workload from a seed and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name and unit, then one JSON result line:
//
//	perfbench --workload campaign-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads: campaign-sweep, harden-recover, service-mix (README.md
// describes each, its metrics and how to read them). The timed phase is
// a whole number of rounds of fixed work sized from --seconds, so every
// run of a seed does the same simulated work and its results_digest
// repeats. Any failed output check prints correct=false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workload is one named input set the benchmark can run.
// Why each exists is in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(ctx context.Context, o options, rep *report) error
}

var workloads = []workload{
	{"campaign-sweep", runCampaignSweep},
	{"harden-recover", runHardenRecover},
	{"service-mix", runServiceMix},
}

// options are the command-line knobs every workload receives, plus the
// directory the traced run writes its span file into.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// DefaultSeed is the seed of the README's figures. README.md names the
// held-out seed that later performance claims are re-checked on.
const DefaultSeed = 1

// buildDir is where run.sh builds the benchmark, relative to the
// repository root it runs from; the traced run writes its spans there.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "campaign-sweep", "workload to run: campaign-sweep, harden-recover or service-mix")
	seed := flag.Int64("seed", DefaultSeed, "workload seed; generates campaign seeds and ad-hoc sources")
	seconds := flag.Float64("seconds", 20, "target length of the timed phase in seconds (sizes the fixed work)")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traced == 1, outDir: buildDir}
	rep := newReport(w.name, o)
	if err := w.run(context.Background(), o, rep); err != nil {
		rep.fail("%v", err)
	}
	rep.print(os.Stderr)
	fmt.Printf("results_digest %s seed=%d %s\n", w.name, o.seed, rep.digest)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(rep.failures) > 0 {
		os.Exit(1)
	}
}

// row is one printed metric.
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

// report collects a run's metrics, output checks and operation counts.
type report struct {
	workload  string
	opts      options
	e2e       []row
	layer     []row
	failures  []string
	attempted int
	failed    int
	digest    string
}

func newReport(name string, o options) *report { return &report{workload: name, opts: o} }

// metric records an end-to-end metric (e2e true) or a per-layer one.
// Only the kind the run reports is kept.
func (r *report) metric(e2e bool, name string, v float64, unit, note string) {
	if e2e == r.opts.trace {
		return
	}
	rw := row{name, v, unit, note}
	if e2e {
		r.e2e = append(r.e2e, rw)
	} else {
		r.layer = append(r.layer, rw)
	}
}

// notExercised records the per-layer rows the workload's traffic does
// not reach as 0, so every traced run emits the whole catalog.
func (r *report) notExercised(unit string, names ...string) {
	for _, n := range names {
		r.metric(false, n, 0, unit, "not exercised by this workload")
	}
}

// check records a failed output check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("%v", err)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (r *report) rows() []row {
	if r.opts.trace {
		return r.layer
	}
	return r.e2e
}

func (r *report) result() resultJSON {
	res := resultJSON{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	for _, m := range r.rows() {
		res.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	return res
}

// print writes the human table: every metric with its unit and note
// (percentile and sample count for latencies), then the checks.
func (r *report) print(f *os.File) {
	kind := "end-to-end"
	if r.opts.trace {
		kind = "per-layer"
	}
	fmt.Fprintf(f, "== %s seed=%d seconds=%g (%s)\n", r.workload, r.opts.seed, r.opts.seconds, kind)
	rows := append([]row(nil), r.rows()...)
	if r.opts.trace {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	}
	for _, m := range rows {
		fmt.Fprintf(f, "  %-34s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "  %-34s %14.6g %-9s %d of %d operations\n", "failed_frac", frac, "fraction", r.failed, r.attempted)
	if len(r.failures) == 0 {
		fmt.Fprintln(f, "  output checks: all passed")
		return
	}
	fmt.Fprintf(f, "  output checks: %d FAILED\n", len(r.failures))
	for i, msg := range r.failures {
		if i == 20 {
			fmt.Fprintf(f, "    ... %d more\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(f, "    "+strings.TrimSpace(msg))
	}
}
