package exp

import (
	"fmt"
	"math"

	"etap/internal/campaign"
)

// Characterize folds one engine's error-count sweep into the
// "characterize" report: one row per point with outcome counts, rates
// with Wilson intervals, latencies and a status column flagging
// early-stopped and cancelled (partial) points. tmpl is the sweep's
// template point: its trial budget and schedule seed are echoed as the
// report's Trials and Seed. The HTTP service's
// benchmark and source jobs and cmd/etcamp both report through it, so
// the same sweep serializes to the same bytes on either path.
func Characterize(subject, mode, policy string, tmpl campaign.Point, points []campaign.PointResult) *Report {
	r := &Report{
		ID:    "characterize",
		Title: fmt.Sprintf("Characterization of %s, %s, policy %s", subject, mode, policy),
		Kind:  KindTable,
		App:   subject,
		Mode:  mode,
		Columns: []Column{
			{Name: "errors", Unit: "count"},
			{Name: "trials", Unit: "count"},
			{Name: "crashes", Unit: "count"},
			{Name: "timeouts", Unit: "count"},
			{Name: "detected", Unit: "count"},
			{Name: "recovered", Unit: "count"},
			{Name: "completed", Unit: "count"},
			{Name: "masked", Unit: "count"},
			{Name: "accepted", Unit: "count"},
			{Name: "tolerated", Unit: "count"},
			{Name: "untolerated", Unit: "count"},
			{Name: "fail", Unit: "%"},
			{Name: "accept", Unit: "%"},
			{Name: "detect", Unit: "%"},
			{Name: "availability", Unit: "%"},
			{Name: "mean fidelity", Unit: "x"},
			{Name: "detect latency p50", Unit: "instructions"},
			{Name: "detect latency p95", Unit: "instructions"},
			{Name: "recover latency p50", Unit: "instructions"},
			{Name: "status"},
		},
		Trials: tmpl.MaxTrials,
		Seed:   tmpl.ScheduleSeed(),
		Policy: policy,
	}
	for _, p := range points {
		status := "ok"
		switch {
		case p.Cancelled:
			status = "cancelled (partial)"
		case p.EarlyStopped:
			status = "early stop"
		}
		fid := "-"
		if !math.IsNaN(p.MeanValue) {
			fid = fmt.Sprintf("%.3f", p.MeanValue)
		}
		r.Rows = append(r.Rows, []Cell{
			CellInt(p.Errors),
			CellInt(p.Trials),
			CellInt(p.Crashes),
			CellInt(p.Timeouts),
			CellInt(p.Detected),
			CellInt(p.Recovered),
			CellInt(p.Completed),
			CellInt(p.Masked),
			CellInt(p.Accepted),
			CellInt(p.Tolerated),
			CellInt(p.Untolerated),
			CellCI(pct(p.FailPct), p.FailPct, p.FailLowPct, p.FailHighPct),
			CellNum(pct(p.AcceptPct), p.AcceptPct),
			CellCI(pct(p.DetectPct), p.DetectPct, p.DetectLowPct, p.DetectHighPct),
			CellCI(pct(p.AvailabilityPct), p.AvailabilityPct, p.AvailabilityLowPct, p.AvailabilityHighPct),
			CellNum(fid, p.MeanValue),
			CellInt(int(p.DetectLatencyP50)),
			CellInt(int(p.DetectLatencyP95)),
			CellInt(int(p.RecoverLatencyP50)),
			CellStr(status),
		})
	}
	return r
}
