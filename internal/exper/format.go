package exper

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// RenderCurves renders one or more curves as an aligned ASCII table keyed
// by M, with one Mean±CI column per curve (plus an analysis column when
// present) — the textual form of the paper's figures.
func RenderCurves(w io.Writer, title string, curves ...*Curve) error {
	if len(curves) == 0 {
		return fmt.Errorf("exper: no curves to render")
	}
	header := []string{"M"}
	for _, c := range curves {
		header = append(header, c.Name+" sim")
		if curveHasAnalysis(c) {
			header = append(header, c.Name+" analysis")
		}
	}
	rows := [][]string{}
	for i := range curves[0].Points {
		row := []string{strconv.Itoa(int(curves[0].Points[i].M))}
		for _, c := range curves {
			if i >= len(c.Points) {
				row = append(row, "-")
				continue
			}
			p := c.Points[i]
			row = append(row, fmt.Sprintf("%.3f±%.3f", p.Mean, p.CI95))
			if curveHasAnalysis(c) {
				row = append(row, fmt.Sprintf("%.3f", p.Analysis))
			}
		}
		rows = append(rows, row)
	}
	return renderTable(w, title, header, rows)
}

func curveHasAnalysis(c *Curve) bool {
	for _, p := range c.Points {
		if p.HasAnalysis {
			return true
		}
	}
	return false
}

// WriteCurvesCSV emits the same data as machine-readable CSV.
func WriteCurvesCSV(w io.Writer, curves ...*Curve) error {
	cw := csv.NewWriter(w)
	header := []string{"curve", "m", "mean", "ci95", "analysis"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range curves {
		for _, p := range c.Points {
			an := ""
			if p.HasAnalysis {
				an = strconv.FormatFloat(p.Analysis, 'g', 8, 64)
			}
			rec := []string{
				c.Name,
				strconv.Itoa(int(p.M)),
				strconv.FormatFloat(p.Mean, 'g', 8, 64),
				strconv.FormatFloat(p.CI95, 'g', 8, 64),
				an,
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderTable1 renders the Table 1 reproduction: per case, the paper's
// distribution next to ours.
func RenderTable1(w io.Writer, cases []Table1Case) error {
	header := []string{"case", "constraints", "paper p1/p2/p3", "ours p1/p2/p3", "feasible"}
	rows := make([][]string, 0, len(cases))
	for _, c := range cases {
		cons := make([]string, 0, len(c.Constraints))
		for _, d := range c.Constraints {
			cons = append(cons, fmt.Sprintf("(%d,%g)", d.M, d.MinLevels))
		}
		rows = append(rows, []string{
			c.Name,
			strings.Join(cons, " "),
			fmtDist(c.PaperP),
			fmtDist(c.SolvedP),
			strconv.FormatBool(c.Feasible),
		})
	}
	return renderTable(w, "Table 1: priority distributions from the feasibility problem", header, rows)
}

func fmtDist(p []float64) string {
	if len(p) == 0 {
		return "-"
	}
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = strconv.FormatFloat(v, 'f', 4, 64)
	}
	return strings.Join(parts, "/")
}

// renderTable prints an aligned ASCII table.
func renderTable(w io.Writer, title string, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	printRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := printRow(header); err != nil {
		return err
	}
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := printRow(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := printRow(row); err != nil {
			return err
		}
	}
	return nil
}
