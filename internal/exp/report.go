package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"etap/internal/textplot"
)

// Kind distinguishes tabular reports from figure (series) reports. Every
// report carries a table (Columns × Rows); a figure report additionally
// carries the plotted series and renders an ASCII chart above the table.
type Kind string

const (
	KindTable  Kind = "table"
	KindFigure Kind = "figure"
)

// Column names one report column. Unit is a machine-readable hint for
// consumers of the JSON/CSV renderings ("%", "count", "instructions",
// "x"); the text renderer ignores it.
type Column struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
}

// Cell is one table cell: the exact string the text renderer prints,
// the typed value behind it (nil for purely textual cells), and — for
// rate cells backed by a campaign point — the Wilson 95% confidence
// bounds.
type Cell struct {
	Text string   `json:"text"`
	Num  *float64 `json:"num,omitempty"`
	Lo   *float64 `json:"lo,omitempty"`
	Hi   *float64 `json:"hi,omitempty"`
}

// CellStr, CellInt, CellNum and CellCI construct cells under the
// renderers' conventions; they are exported for report builders outside
// the package (cmd/etharden's coverage table), so the formatting
// contract has one implementation.
func CellStr(s string) Cell { return Cell{Text: s} }

func CellInt(n int) Cell {
	v := float64(n)
	return Cell{Text: strconv.Itoa(n), Num: &v}
}

// CellNum pairs a pre-formatted text with its numeric value; NaN leaves
// the cell textual so JSON consumers see null, not a broken number.
func CellNum(text string, v float64) Cell {
	c := Cell{Text: text}
	if !math.IsNaN(v) {
		c.Num = &v
	}
	return c
}

// CellCI is CellNum plus Wilson interval bounds.
func CellCI(text string, v, lo, hi float64) Cell {
	c := CellNum(text, v)
	if c.Num != nil {
		c.Lo, c.Hi = &lo, &hi
	}
	return c
}

// Series is one named curve of a figure report, aligned point-for-point
// with the report's rows.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// MarshalJSON emits NaN y-values (no completed trials at that point) as
// null, which encoding/json cannot do for plain float64 slices.
func (s Series) MarshalJSON() ([]byte, error) {
	ys := make([]*float64, len(s.Y))
	for i, y := range s.Y {
		if !math.IsNaN(y) {
			v := y
			ys[i] = &v
		}
	}
	return json.Marshal(struct {
		Name string     `json:"name"`
		X    []float64  `json:"x"`
		Y    []*float64 `json:"y"`
	}{s.Name, s.X, ys})
}

// Report is the structured result of one experiment: named columns, typed
// rows, optional figure series, and the options metadata needed to
// reproduce it. Renderers are separate — RenderText reproduces the
// classic terminal tables and charts byte-for-byte, WriteJSON and
// WriteCSV serve machine consumers.
type Report struct {
	// ID is the experiment identifier ("table2", "figure1", ...).
	ID string `json:"id"`
	// Title is the human heading: for tables the full preamble printed
	// above the table, for figures the chart title.
	Title string `json:"title"`
	Kind  Kind   `json:"kind"`
	// App names the single benchmark a figure or characterization
	// sweeps; empty for multi-benchmark tables.
	App string `json:"app,omitempty"`
	// Mode names the eligibility mode a characterization swept
	// ("protected", "unprotected", "hardened (detection campaign)");
	// empty for every other report.
	Mode   string `json:"mode,omitempty"`
	XLabel string `json:"x_label,omitempty"`
	YLabel string `json:"y_label,omitempty"`

	Columns []Column `json:"columns"`
	Rows    [][]Cell `json:"rows"`

	Series []Series `json:"series,omitempty"`
	// Threshold is the paper's fidelity threshold line, when the figure
	// draws one.
	Threshold *float64 `json:"threshold,omitempty"`

	// Trials/Seed/Policy echo the options the experiment ran under.
	// Trials is 0 for static experiments that run no campaigns.
	Trials int    `json:"trials,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// RenderText renders the report the way the pre-Report harness did:
// tables as a preamble plus an aligned text table, figures as an ASCII
// chart over the numeric table behind it.
func (r *Report) RenderText() string {
	if r.Kind == KindFigure {
		series := make([]textplot.Series, 0, len(r.Series)+1)
		for _, s := range r.Series {
			series = append(series, textplot.Series{Name: s.Name, X: s.X, Y: s.Y})
		}
		if r.Threshold != nil && len(r.Series) > 0 {
			xs := r.Series[0].X
			ys := make([]float64, len(xs))
			for i := range ys {
				ys[i] = *r.Threshold
			}
			series = append(series, textplot.Series{
				Name: fmt.Sprintf("fidelity threshold (%.0f)", *r.Threshold),
				X:    xs,
				Y:    ys,
			})
		}
		return textplot.Chart(r.Title, r.XLabel, r.YLabel, 56, 14, series) + "\n" + r.renderTable()
	}
	return r.Title + "\n\n" + r.renderTable()
}

func (r *Report) renderTable() string {
	headers := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		headers[i] = c.Name
	}
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = c.Text
		}
		rows[i] = cells
	}
	return textplot.Table(headers, rows)
}

// WriteJSON renders reports as one indented JSON array.
func WriteJSON(w io.Writer, reports []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// WriteCSV renders reports as CSV, one block per report separated by a
// blank line. Each block leads with a header row whose key columns are
// "report", then "app" and "mode" when the report sets them (the keys
// repeat on every data row, so blocks stay self-describing when split
// apart or concatenated). Columns carrying confidence bounds
// get companion "<name> (lo)"/"<name> (hi)" columns; numeric cells are
// written at full precision, textual cells verbatim.
func WriteCSV(w io.Writer, reports []*Report) error {
	for i, r := range reports {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := r.writeCSVBlock(w); err != nil {
			return fmt.Errorf("exp: csv export of %s: %w", r.ID, err)
		}
	}
	return nil
}

func (r *Report) writeCSVBlock(w io.Writer) error {
	hasCI := make([]bool, len(r.Columns))
	for _, row := range r.Rows {
		for j, c := range row {
			if j < len(hasCI) && c.Lo != nil {
				hasCI[j] = true
			}
		}
	}
	keys := []string{r.ID}
	header := []string{"report"}
	if r.App != "" {
		keys, header = append(keys, r.App), append(header, "app")
	}
	if r.Mode != "" {
		keys, header = append(keys, r.Mode), append(header, "mode")
	}
	for j, c := range r.Columns {
		header = append(header, c.Name)
		if hasCI[j] {
			header = append(header, c.Name+" (lo)", c.Name+" (hi)")
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	num := func(p *float64) string {
		if p == nil {
			return ""
		}
		return strconv.FormatFloat(*p, 'g', -1, 64)
	}
	for _, row := range r.Rows {
		rec := append([]string(nil), keys...)
		for j, c := range row {
			if c.Num != nil {
				rec = append(rec, num(c.Num))
			} else {
				rec = append(rec, c.Text)
			}
			if j < len(hasCI) && hasCI[j] {
				rec = append(rec, num(c.Lo), num(c.Hi))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
