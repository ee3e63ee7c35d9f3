package etap

import (
	"context"
	"io"

	"etap/internal/exp"
	obstrace "etap/internal/obs/trace"
)

// Report is the structured result of one experiment: named, unit-tagged
// columns, typed rows (with Wilson confidence bounds on rate cells),
// figure series, and the options metadata to reproduce the run. Render
// it with RenderText, or serialize batches with WriteReportsJSON /
// WriteReportsCSV; the text rendering is byte-identical to the text the
// pre-Report string API returned for the paper's tables and figures.
type Report = exp.Report

// WriteReportsJSON renders reports as one indented JSON array.
func WriteReportsJSON(w io.Writer, reports []*Report) error {
	return exp.WriteJSON(w, reports)
}

// WriteReportsCSV renders reports as CSV blocks, one per report, with
// confidence-bound companion columns where cells carry them.
func WriteReportsCSV(w io.Writer, reports []*Report) error {
	return exp.WriteCSV(w, reports)
}

// Experiment is one registered, runnable experiment from the paper's
// evaluation (or a DESIGN.md extension).
type Experiment struct {
	// ID is the stable identifier ("table2", "figure1", ...).
	ID string
	// Title is a one-line description.
	Title string

	run func(context.Context, exp.Options) (*exp.Report, error)
}

// Run executes the experiment. It honours WithTrials, WithSeed,
// WithWorkers, WithPolicy and WithProgress; cancelling ctx aborts the
// run between campaign trials and returns ctx's error.
func (e Experiment) Run(ctx context.Context, opts ...Option) (*Report, error) {
	if e.run == nil {
		return nil, exp.UnknownExperimentError(e.ID)
	}
	// Child span of whatever the caller carries (a served job span, or
	// nothing for library use); campaign points nest beneath it.
	ctx, span := obstrace.Start(ctx, "experiment.run", obstrace.String("experiment", e.ID))
	defer span.End()
	r, err := e.run(ctx, applyOptions(opts).expOptions())
	if err != nil {
		span.SetStatus(obstrace.StatusError, err.Error())
	}
	return r, err
}

// Experiments lists every registered experiment in canonical order.
func Experiments() []Experiment {
	es := exp.Experiments()
	out := make([]Experiment, len(es))
	for i, e := range es {
		out[i] = Experiment{ID: e.ID, Title: e.Title, run: e.Run}
	}
	return out
}

// ExperimentByID resolves one registered experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentIDs lists the registered experiment IDs in canonical order.
func ExperimentIDs() []string { return exp.IDs() }
