package exp

import (
	"context"

	"etap/internal/campaign"
)

// figure accumulates one figure report: an error-count sweep with named
// series, rendered as a chart plus the numeric table behind it.
type figure struct {
	rep    *Report
	errors []int
}

func newFigure(id, title, app, ylabel string, errors []int, opt Options) *figure {
	return &figure{
		rep: &Report{
			ID:      id,
			Kind:    KindFigure,
			Title:   title,
			App:     app,
			XLabel:  "errors inserted",
			YLabel:  ylabel,
			Columns: []Column{{Name: "errors", Unit: "count"}},
			Trials:  opt.Point.MaxTrials,
			Seed:    opt.Point.ScheduleSeed(),
			Policy:  opt.Policy.String(),
		},
		errors: errors,
	}
}

func (f *figure) xs() []float64 {
	xs := make([]float64, len(f.errors))
	for i, e := range f.errors {
		xs[i] = float64(e)
	}
	return xs
}

func (f *figure) addSeries(name string, ys []float64) {
	f.rep.Series = append(f.rep.Series, Series{Name: name, X: f.xs(), Y: ys})
	f.rep.Columns = append(f.rep.Columns, Column{Name: name, Unit: f.rep.YLabel})
}

// report fills the numeric table from the accumulated series and returns
// the finished Report.
func (f *figure) report() *Report {
	f.rep.Rows = make([][]Cell, len(f.errors))
	for i, e := range f.errors {
		row := []Cell{CellInt(e)}
		for _, s := range f.rep.Series {
			row = append(row, CellNum(num(s.Y[i]), s.Y[i]))
		}
		f.rep.Rows[i] = row
	}
	return f.rep
}

func values(pts []campaign.PointResult, f func(campaign.PointResult) float64) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = f(p)
	}
	return out
}

func meanValues(pts []campaign.PointResult) []float64 {
	return values(pts, func(p campaign.PointResult) float64 { return p.MeanValue })
}
func failValues(pts []campaign.PointResult) []float64 {
	return values(pts, func(p campaign.PointResult) float64 { return p.FailPct })
}
func acceptValues(pts []campaign.PointResult) []float64 {
	return values(pts, func(p campaign.PointResult) float64 { return p.AcceptPct })
}

// Figure1 — Susan: PSNR of the edge map versus errors inserted, with the
// static analysis on and off, against the 10 dB threshold.
func Figure1(ctx context.Context, opt Options) (*Report, error) {
	es, err := engines("susan", opt.Policy, campaign.Protected, campaign.Unprotected)
	if err != nil {
		return nil, err
	}
	f := newFigure("figure1", "Figure 1: Susan results", "susan",
		"PSNR of pictures with error (dB)", []int{100, 500, 920, 1100, 1550, 2300}, opt)
	thr := 10.0
	f.rep.Threshold = &thr
	on := opt.sweep(ctx, es[0], campaign.ErrorPoints(opt.base(), f.errors))
	off := opt.sweep(ctx, es[1], campaign.ErrorPoints(opt.base(), f.errors))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.addSeries("static analysis ON", meanValues(on))
	f.addSeries("static analysis OFF", meanValues(off))
	return f.report(), nil
}

// Figure2 — MPEG: percentage of bad frames and failed executions versus
// errors, protection on.
func Figure2(ctx context.Context, opt Options) (*Report, error) {
	es, err := engines("mpeg", opt.Policy, campaign.Protected)
	if err != nil {
		return nil, err
	}
	f := newFigure("figure2", "Figure 2: MPEG results", "mpeg",
		"% of bad frames / % failed", []int{10, 50, 100, 150, 300, 500}, opt)
	thr := 10.0
	f.rep.Threshold = &thr
	on := opt.sweep(ctx, es[0], campaign.ErrorPoints(opt.base(), f.errors))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.addSeries("% bad frames (analysis ON)", meanValues(on))
	f.addSeries("% failed executions", failValues(on))
	return f.report(), nil
}

// Figure3 — MCF: percentage of optimal schedules found and failed runs.
func Figure3(ctx context.Context, opt Options) (*Report, error) {
	es, err := engines("mcf", opt.Policy, campaign.Protected)
	if err != nil {
		return nil, err
	}
	f := newFigure("figure3", "Figure 3: MCF results", "mcf",
		"% optimal schedules / % failed", []int{1, 20, 50, 100, 150, 200, 250, 300}, opt)
	on := opt.sweep(ctx, es[0], campaign.ErrorPoints(opt.base(), f.errors))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.addSeries("% optimal schedules found", acceptValues(on))
	f.addSeries("% failed executions", failValues(on))
	return f.report(), nil
}

// Figure4 — Blowfish: percentage of bytes correct and failed executions.
func Figure4(ctx context.Context, opt Options) (*Report, error) {
	es, err := engines("blowfish", opt.Policy, campaign.Protected)
	if err != nil {
		return nil, err
	}
	f := newFigure("figure4", "Figure 4: Blowfish results", "blowfish",
		"% bytes correct / % failed", []int{5, 10, 15, 20, 25, 30, 35, 40}, opt)
	on := opt.sweep(ctx, es[0], campaign.ErrorPoints(opt.base(), f.errors))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.addSeries("% bytes correct (fidelity)", meanValues(on))
	f.addSeries("% failed executions", failValues(on))
	return f.report(), nil
}

// Figure5 — GSM: SNR relative to the fault-free decode and failures.
func Figure5(ctx context.Context, opt Options) (*Report, error) {
	es, err := engines("gsm", opt.Policy, campaign.Protected)
	if err != nil {
		return nil, err
	}
	f := newFigure("figure5", "Figure 5: GSM results", "gsm",
		"% SNR from optimal / % failed", []int{5, 10, 15, 20, 25, 30, 35, 40}, opt)
	on := opt.sweep(ctx, es[0], campaign.ErrorPoints(opt.base(), f.errors))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.addSeries("% SNR from optimal (fidelity)", meanValues(on))
	f.addSeries("% failed executions", failValues(on))
	return f.report(), nil
}

// Figure6 — ART: percentage of images recognized and failures.
func Figure6(ctx context.Context, opt Options) (*Report, error) {
	es, err := engines("art", opt.Policy, campaign.Protected)
	if err != nil {
		return nil, err
	}
	f := newFigure("figure6", "Figure 6: ART results", "art",
		"% images recognized / % failed", []int{1, 2, 3, 4}, opt)
	on := opt.sweep(ctx, es[0], campaign.ErrorPoints(opt.base(), f.errors))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.addSeries("% images recognized", acceptValues(on))
	f.addSeries("% failed executions", failValues(on))
	return f.report(), nil
}

// Figures runs all six figures.
func Figures(ctx context.Context, opt Options) ([]*Report, error) {
	builders := []func(context.Context, Options) (*Report, error){
		Figure1, Figure2, Figure3, Figure4, Figure5, Figure6,
	}
	out := make([]*Report, 0, len(builders))
	for _, fn := range builders {
		f, err := fn(ctx, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
