package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/obs"
)

// fastOpt keeps harness tests quick.
var fastOpt = Options{Point: campaign.Point{MaxTrials: 6, Seed: 3}, Policy: core.PolicyControlAddr}

// goldenOpt is the configuration internal/exp/testdata/*.golden were
// generated with (the text goldens against the pre-Report renderers).
var goldenOpt = Options{Point: campaign.Point{MaxTrials: 4, Seed: 3}, Policy: core.PolicyControlAddr}

// at is opt's base point at n errors.
func at(opt Options, n int) campaign.Point {
	pt := opt.base()
	pt.Errors = n
	return pt
}

var ctx = context.Background()

func TestBuildCrossChecksReference(t *testing.T) {
	es, err := engines("adpcm", core.PolicyControlAddr, campaign.Protected, campaign.Unprotected)
	if err != nil {
		t.Fatal(err)
	}
	on, off := es[0], es[1]
	if on.Clean.Instret == 0 || off.Clean.Instret == 0 {
		t.Fatalf("clean runs missing")
	}
	if on.Clean.EligibleExec >= off.Clean.EligibleExec {
		t.Fatalf("protected eligible stream (%d) should be smaller than unprotected (%d)",
			on.Clean.EligibleExec, off.Clean.EligibleExec)
	}
	if len(on.Clean.Output) == 0 {
		t.Fatalf("no golden output")
	}
}

// TestPotentialGoldenPasses counts golden passes over one experiment:
// potential reads only protected engines, so it records one per (app,
// policy), not one per mode. It must not run in parallel, since the
// counter is process-wide.
func TestPotentialGoldenPasses(t *testing.T) {
	records := obs.Default().CounterVec("etap_sim_runs_total", "", "kind").With("record")
	before := records.Value()
	if _, err := Potential(ctx, fastOpt); err != nil {
		t.Fatal(err)
	}
	if got, want := records.Value()-before, float64(2*len(all.Apps())); got != want {
		t.Fatalf("potential ran %v golden passes, want %v", got, want)
	}
}

func TestRunPointAggregates(t *testing.T) {
	es, err := engines("adpcm", core.PolicyControlAddr, campaign.Protected)
	if err != nil {
		t.Fatal(err)
	}
	on := es[0]
	p := on.RunPoint(ctx, at(fastOpt, 3), nil)
	if p.Trials != fastOpt.Point.MaxTrials {
		t.Fatalf("trials = %d", p.Trials)
	}
	if p.Completed+p.Crashes+p.Timeouts != p.Trials {
		t.Fatalf("outcome counts don't add up: %+v", p)
	}
	if p.FailPct < 0 || p.FailPct > 100 || p.AcceptPct < 0 || p.AcceptPct > 100 {
		t.Fatalf("percentages out of range: %+v", p)
	}
	if p.FailLowPct > p.FailPct || p.FailPct > p.FailHighPct {
		t.Fatalf("Wilson interval [%.2f, %.2f] does not bracket %.2f", p.FailLowPct, p.FailHighPct, p.FailPct)
	}
	if p.Completed > 0 && math.IsNaN(p.MeanValue) {
		t.Fatalf("mean value NaN with completions")
	}
}

func TestZeroErrorsIsPerfect(t *testing.T) {
	es, err := engines("gsm", core.PolicyControlAddr, campaign.Protected)
	if err != nil {
		t.Fatal(err)
	}
	on := es[0]
	p := on.RunPoint(ctx, at(fastOpt, 0), nil)
	if p.FailPct != 0 || p.AcceptPct != 100 {
		t.Fatalf("zero-error point: %+v", p)
	}
}

func TestRunPointDeterministic(t *testing.T) {
	es, err := engines("blowfish", core.PolicyControlAddr, campaign.Protected)
	if err != nil {
		t.Fatal(err)
	}
	on := es[0]
	p1 := on.RunPoint(ctx, at(fastOpt, 5), nil)
	p2 := on.RunPoint(ctx, at(fastOpt, 5), nil)
	if p1 != p2 {
		t.Fatalf("points differ: %+v vs %+v", p1, p2)
	}
}

// TestProtectionReducesFailures is the paper's central claim, asserted
// statistically with fixed seeds on the unprotected-vs-protected pair.
func TestProtectionReducesFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"susan", "gsm"} {
		es, err := engines(name, core.PolicyControlAddr, campaign.Protected, campaign.Unprotected)
		if err != nil {
			t.Fatal(err)
		}
		errs := 40
		on := es[0].RunPoint(ctx, at(fastOpt, errs), nil)
		off := es[1].RunPoint(ctx, at(fastOpt, errs), nil)
		if on.FailPct > off.FailPct {
			t.Errorf("%s: protected failures %.0f%% exceed unprotected %.0f%%", name, on.FailPct, off.FailPct)
		}
		if on.FailPct > 20 {
			t.Errorf("%s: protected failure rate %.0f%% too high at %d errors", name, on.FailPct, errs)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	r := Table1()
	if len(r.Rows) != 7 {
		t.Fatalf("table 1 has %d rows", len(r.Rows))
	}
	if r.Kind != KindTable || r.ID != "table1" {
		t.Fatalf("report identity: %s/%s", r.ID, r.Kind)
	}
	out := r.RenderText()
	for _, name := range all.Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("table 1 missing %s", name)
		}
	}
}

func TestTable3Measures(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Table3(ctx, fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("table 3 has %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		app := row[0].Text
		if row[1].Num == nil || *row[1].Num == 0 {
			t.Errorf("%s: no instructions", app)
		}
		lowRel, arith := row[2].Num, row[4].Num
		if lowRel == nil || arith == nil || *lowRel <= 0 || *lowRel > *arith {
			t.Errorf("%s: low-rel outside (0, arith]: %+v", app, row)
		}
	}
	out := r.RenderText()
	if !strings.Contains(out, "Table 3") {
		t.Fatalf("render: %s", out)
	}
}

func TestFigureRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpt
	opt.Point.MaxTrials = 3
	f, err := Figure6(ctx, opt) // ART is the fastest sweep
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindFigure || f.App != "art" {
		t.Fatalf("figure identity: %+v", f)
	}
	if len(f.Series) != 2 {
		t.Fatalf("figure 6 has %d series", len(f.Series))
	}
	if len(f.Rows) != len(f.Series[0].X) || len(f.Columns) != 1+len(f.Series) {
		t.Fatalf("figure table misaligned: %d rows, %d columns", len(f.Rows), len(f.Columns))
	}
	out := f.RenderText()
	for _, want := range []string{"Figure 6", "errors inserted", "% images recognized", "errors"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ErrorCountsMatchPaper(t *testing.T) {
	// The experiment must use the paper's error pairs.
	want := map[string][]int{
		"susan":    {2200},
		"mpeg":     {20, 120},
		"mcf":      {1, 340},
		"blowfish": {2, 20},
		"gsm":      {10, 40},
		"art":      {4},
		"adpcm":    {3, 56},
	}
	for app, counts := range want {
		got := table2Errors[app]
		if len(got) != len(counts) {
			t.Fatalf("%s: error counts %v, want %v", app, got, counts)
		}
		for i := range counts {
			if got[i] != counts[i] {
				t.Fatalf("%s: error counts %v, want %v", app, got, counts)
			}
		}
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := appByNameOrErr("nosuch"); err == nil {
		t.Fatalf("unknown app accepted")
	}
}

func TestMaskingBins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpt
	opt.Point.MaxTrials = 10
	r, err := Masking(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		total := 0.0
		for _, c := range row[1:] {
			if c.Num == nil {
				t.Fatalf("%s: non-numeric bin cell %+v", row[0].Text, c)
			}
			total += *c.Num
		}
		if total < 99.9 || total > 100.1 {
			t.Errorf("%s: bins sum to %.1f%%", row[0].Text, total)
		}
	}
	out := r.RenderText()
	if !strings.Contains(out, "Masked") || !strings.Contains(out, "Catastrophic") {
		t.Fatalf("render missing headers")
	}
}

// TestAvailabilityExperiment checks the recovery experiment's accounting:
// rows partition into tolerated/detected/untolerated, the recovery-off
// row reports no recoveries, and enabling recovery never lowers the
// tolerated fraction at the same seed.
func TestAvailabilityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpt
	opt.Point.MaxTrials = 16
	r, err := Availability(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "availability" || r.Kind != KindTable {
		t.Fatalf("report identity: %s/%s", r.ID, r.Kind)
	}
	if len(r.Rows) != 2*len(all.Names()) {
		t.Fatalf("availability has %d rows, want 2 per app", len(r.Rows))
	}
	anyRecovered := false
	for i, row := range r.Rows {
		app, mode := row[0].Text, row[1].Text
		tol, det, untol := *row[2].Num, *row[3].Num, *row[4].Num
		if s := tol + det + untol; s < 99.9 || s > 100.1 {
			t.Errorf("%s (%s): bins sum to %.2f%%", app, mode, s)
		}
		if avail := row[5]; avail.Num == nil || *avail.Num != tol || avail.Lo == nil {
			t.Errorf("%s (%s): availability cell inconsistent: %+v", app, mode, avail)
		}
		recovered := int(*row[6].Num)
		if mode == "off" {
			if recovered != 0 {
				t.Errorf("%s: recovery off but %d recovered", app, recovered)
			}
		} else {
			if recovered > 0 {
				anyRecovered = true
			}
			if offTol := *r.Rows[i-1][2].Num; tol < offTol {
				t.Errorf("%s: recovery lowered tolerated %.1f%% -> %.1f%%", app, offTol, tol)
			}
		}
	}
	if !anyRecovered {
		t.Error("no benchmark recovered a single trial")
	}
	out := r.RenderText()
	if !strings.Contains(out, "Untolerated") || !strings.Contains(out, "Availability") {
		t.Fatalf("render missing headers:\n%s", out)
	}
}

// TestRegistryComplete pins the canonical experiment set and its order.
func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "figure1", "figure2", "figure3",
		"figure4", "figure5", "figure6", "ablation", "potential", "bits", "masking",
		"availability"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v", got)
		}
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok || e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incompletely registered", id)
		}
	}
	if _, ok := ByID("nosuch"); ok {
		t.Fatalf("unknown experiment resolved")
	}
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRenderTextMatchesGolden is the redesign's compatibility contract:
// the structured reports must render, as text, byte-identically to the
// output of the pre-Report harness (captured in testdata at goldenOpt).
func TestRenderTextMatchesGolden(t *testing.T) {
	if got, want := Table1().RenderText(), golden(t, "table1.golden"); got != want {
		t.Errorf("table1 render diverged from pre-redesign output:\n got: %q\nwant: %q", got, want)
	}
	if testing.Short() {
		t.Skip("short mode: skipping campaign-backed goldens")
	}
	t3, err := Table3(ctx, goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := t3.RenderText(), golden(t, "table3.golden"); got != want {
		t.Errorf("table3 render diverged from pre-redesign output:\n got: %q\nwant: %q", got, want)
	}
	f6, err := Figure6(ctx, goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f6.RenderText(), golden(t, "figure6.golden"); got != want {
		t.Errorf("figure6 render diverged from pre-redesign output:\n got: %q\nwant: %q", got, want)
	}
}

// TestTable2RenderMatchesGolden runs the full Table 2 campaign at the
// golden options; it is the slowest golden and gets its own test so -run
// can select it.
func TestTable2RenderMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t2, err := Table2(ctx, goldenOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := t2.RenderText(), golden(t, "table2.golden"); got != want {
		t.Errorf("table2 render diverged from pre-redesign output:\n got: %q\nwant: %q", got, want)
	}
}

// TestExperimentsGolden pins the JSON report of every registered
// experiment that no text golden covers, at goldenOpt, byte for byte
// against testdata/<id>.json.golden. A deliberate output change rewrites
// those files by hand; there is no update flag.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range []string{"figure1", "figure2", "figure3", "figure4", "figure5",
		"ablation", "potential", "bits", "masking", "availability"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		r, err := e.Run(ctx, goldenOpt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var b bytes.Buffer
		if err := WriteJSON(&b, []*Report{r}); err != nil {
			t.Fatal(err)
		}
		if got, want := b.String(), golden(t, id+".json.golden"); got != want {
			t.Errorf("%s JSON diverged from its golden:\n got: %s\nwant: %s", id, got, want)
		}
	}
}

// TestReportJSONAndCSV checks the machine renderings: valid JSON with
// typed cells, and CSV blocks with CI companion columns.
func TestReportJSONAndCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpt
	opt.Point.MaxTrials = 3
	f, err := Figure6(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	reports := []*Report{Table1(), f}

	var jb bytes.Buffer
	if err := WriteJSON(&jb, reports); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON artifact: %v\n%s", err, jb.String())
	}
	if len(decoded) != 2 || decoded[0]["id"] != "table1" || decoded[1]["id"] != "figure6" {
		t.Fatalf("unexpected JSON shape: %s", jb.String())
	}
	if decoded[1]["series"] == nil {
		t.Fatalf("figure JSON missing series: %s", jb.String())
	}

	var cb bytes.Buffer
	if err := WriteCSV(&cb, reports); err != nil {
		t.Fatal(err)
	}
	out := cb.String()
	if !strings.Contains(out, "report,Application") || !strings.Contains(out, "table1,susan") {
		t.Fatalf("unexpected CSV: %s", out)
	}
}

// TestCharacterizeReportJSONAndCSV: a sweep folds into the characterize
// report with one row per point, echoes the template's budget and seed
// (the default seed 1 when the template sets none), and its CSV rows are
// keyed by report, app and mode.
func TestCharacterizeReportJSONAndCSV(t *testing.T) {
	es, err := engines("adpcm", core.PolicyControlAddr, campaign.Protected)
	if err != nil {
		t.Fatal(err)
	}
	on := es[0]
	tmpl := campaign.Point{HiBit: 31, MaxTrials: 8, Seed: 3}
	points := on.Sweep(ctx, campaign.ErrorPoints(tmpl, []int{0, 10}), nil)
	rep := Characterize("adpcm", "protected", "control+addr", tmpl, points)

	var jb bytes.Buffer
	if err := WriteJSON(&jb, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON report: %v\n%s", err, jb.String())
	}
	if len(decoded) != 1 || decoded[0]["id"] != "characterize" || decoded[0]["app"] != "adpcm" ||
		decoded[0]["mode"] != "protected" || decoded[0]["seed"] != 3.0 || decoded[0]["trials"] != 8.0 {
		t.Fatalf("unexpected JSON shape: %s", jb.String())
	}
	if rows, _ := decoded[0]["rows"].([]any); len(rows) != 2 {
		t.Fatalf("want 2 rows: %s", jb.String())
	}

	var cb bytes.Buffer
	if err := WriteCSV(&cb, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV should have header + 2 rows, got %d lines:\n%s", len(lines), cb.String())
	}
	if !strings.HasPrefix(lines[0], "report,app,mode,errors,trials,") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "characterize,adpcm,protected,") {
			t.Fatalf("CSV row not keyed by report, app and mode: %s", l)
		}
	}

	tmpl.Seed = 0
	if got := Characterize("adpcm", "protected", "control+addr", tmpl, points).Seed; got != 1 {
		t.Fatalf("seedless template reported seed %d, want the default 1", got)
	}
}

// TestCancelledExperimentPropagates: a cancelled context aborts a
// campaign-backed experiment with the context's error.
func TestCancelledExperimentPropagates(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Table3(cctx, fastOpt); err == nil {
		t.Fatalf("cancelled table3 returned no error")
	}
	if _, err := BitSensitivity(cctx, fastOpt); err == nil {
		t.Fatalf("cancelled bits returned no error")
	}
}
