package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Report is the exportable artifact of one campaign: every measurement
// point for one (benchmark, eligibility mode) pair plus enough metadata to
// reproduce it.
type Report struct {
	// Benchmark names the workload, Mode the eligibility mask
	// ("protected"/"unprotected" in the standard harness).
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode"`
	Seed      int64  `json:"seed"`
	// CleanInstructions and EligibleFraction describe the golden pass.
	CleanInstructions uint64        `json:"clean_instructions"`
	EligibleFraction  float64       `json:"eligible_fraction"`
	Points            []PointResult `json:"points"`
}

// NewReport captures engine metadata for a finished set of points.
func (e *Engine) NewReport(benchmark, mode string, points []PointResult) *Report {
	return &Report{
		Benchmark:         benchmark,
		Mode:              mode,
		Seed:              e.cfg.Seed,
		CleanInstructions: e.Clean.Instret,
		EligibleFraction:  e.EligibleFraction(),
		Points:            points,
	}
}

// WriteJSON renders reports as an indented JSON array. NaN fidelity means
// (no completed trials) are emitted as null.
func WriteJSON(w io.Writer, reports []*Report) error {
	// encoding/json rejects NaN, so sanitize into pointers.
	type pointJSON struct {
		PointResult
		MeanValue   *float64 `json:"mean_value"`
		ValueStddev *float64 `json:"value_stddev"`
	}
	type reportJSON struct {
		*Report
		Points []pointJSON `json:"points"`
	}
	out := make([]reportJSON, len(reports))
	for i, r := range reports {
		pts := make([]pointJSON, len(r.Points))
		for j, p := range r.Points {
			pts[j] = pointJSON{PointResult: p}
			if !math.IsNaN(p.MeanValue) {
				v := p.MeanValue
				pts[j].MeanValue = &v
			}
			if !math.IsNaN(p.ValueStddev) {
				v := p.ValueStddev
				pts[j].ValueStddev = &v
			}
		}
		out[i] = reportJSON{Report: r, Points: pts}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// csvHeader is the flat per-point schema shared by every report row.
var csvHeader = []string{
	"benchmark", "mode", "seed", "errors", "lo_bit", "hi_bit",
	"trials", "crashes", "timeouts", "detected", "recovered", "degraded",
	"completed", "masked", "accepted", "tolerated", "untolerated",
	"mean_value", "value_stddev", "fail_pct", "accept_pct", "detect_pct",
	"recover_pct", "availability_pct",
	"fail_lo_pct", "fail_hi_pct", "detect_lo_pct", "detect_hi_pct",
	"recover_lo_pct", "recover_hi_pct", "availability_lo_pct", "availability_hi_pct",
	"detect_latency_p50", "detect_latency_p95",
	"recover_latency_p50", "recover_latency_p95", "recovery_attempts",
	"early_stopped", "cancelled",
}

// WriteCSV renders reports as one flat CSV table, one row per point. NaN
// fidelity means are emitted as empty cells.
func WriteCSV(w io.Writer, reports []*Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string {
		if math.IsNaN(v) {
			return ""
		}
		return strconv.FormatFloat(v, 'g', 6, 64)
	}
	for _, r := range reports {
		for _, p := range r.Points {
			row := []string{
				r.Benchmark, r.Mode, strconv.FormatInt(r.Seed, 10),
				strconv.Itoa(p.Errors), strconv.Itoa(int(p.LoBit)), strconv.Itoa(int(p.HiBit)),
				strconv.Itoa(p.Trials), strconv.Itoa(p.Crashes), strconv.Itoa(p.Timeouts),
				strconv.Itoa(p.Detected), strconv.Itoa(p.Recovered), strconv.Itoa(p.Degraded),
				strconv.Itoa(p.Completed), strconv.Itoa(p.Masked), strconv.Itoa(p.Accepted),
				strconv.Itoa(p.Tolerated), strconv.Itoa(p.Untolerated),
				f(p.MeanValue), f(p.ValueStddev), f(p.FailPct), f(p.AcceptPct), f(p.DetectPct),
				f(p.RecoverPct), f(p.AvailabilityPct),
				f(p.FailLowPct), f(p.FailHighPct), f(p.DetectLowPct), f(p.DetectHighPct),
				f(p.RecoverLowPct), f(p.RecoverHighPct), f(p.AvailabilityLowPct), f(p.AvailabilityHighPct),
				strconv.FormatUint(p.DetectLatencyP50, 10), strconv.FormatUint(p.DetectLatencyP95, 10),
				strconv.FormatUint(p.RecoverLatencyP50, 10), strconv.FormatUint(p.RecoverLatencyP95, 10),
				strconv.Itoa(p.RecoveryAttempts),
				strconv.FormatBool(p.EarlyStopped), strconv.FormatBool(p.Cancelled),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("campaign: csv export: %w", err)
	}
	return nil
}
