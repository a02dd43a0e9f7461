// Package report renders experiment results as aligned ASCII tables and
// CSV series — the textual equivalents of the paper's tables and figure
// panels.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends one row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case float32:
			row[i] = trimFloat(float64(v))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		_, err := fmt.Fprintln(w, sb.String())
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	write := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			quoted[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
		return err
	}
	if err := write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the table as an array of column-keyed objects, one per
// row — the shape spreadsheet and plotting tools ingest directly.
func (t *Table) WriteJSON(w io.Writer) error {
	rows := make([]map[string]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		obj := make(map[string]string, len(t.Columns))
		for i, c := range t.Columns {
			if i < len(r) {
				obj[c] = r[i]
			}
		}
		rows = append(rows, obj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Title string              `json:"title,omitempty"`
		Rows  []map[string]string `json:"rows"`
	}{t.Title, rows})
}

// Series is one labeled line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// XLabels optionally replaces numeric X values (categorical axes).
	XLabels []string
}

// Figure is a titled set of series, the data behind one figure panel.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes each series as an aligned value table.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s  [%s vs %s]\n", f.Title, f.YLabel, f.XLabel); err != nil {
		return err
	}
	tbl := &Table{Columns: []string{f.XLabel}}
	for _, s := range f.Series {
		tbl.Columns = append(tbl.Columns, s.Name)
	}
	// Collect the union of x positions in first-seen order.
	type key struct{ label string }
	var order []string
	seen := map[string]bool{}
	labelOf := func(s Series, i int) string {
		if s.XLabels != nil {
			return s.XLabels[i]
		}
		return trimFloat(s.X[i])
	}
	for _, s := range f.Series {
		for i := range s.Y {
			l := labelOf(s, i)
			if !seen[l] {
				seen[l] = true
				order = append(order, l)
			}
		}
	}
	for _, l := range order {
		row := []string{l}
		for _, s := range f.Series {
			cell := ""
			for i := range s.Y {
				if labelOf(s, i) == l {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl.Render(w)
}

// WriteCSV writes the figure as long-form CSV (series,x,y).
func (f *Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return err
	}
	for _, s := range f.Series {
		for i := range s.Y {
			x := ""
			if s.XLabels != nil {
				x = s.XLabels[i]
			} else {
				x = trimFloat(s.X[i])
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%g\n", s.Name, x, s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
