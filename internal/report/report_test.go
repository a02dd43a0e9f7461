package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"name", "value"}}
	tbl.AddRow("alpha", 1.50)
	tbl.AddRow("b", 42)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T\n", "name", "value", "alpha", "1.5", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Columns align: "alpha" pads "b" row.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d", len(lines))
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.AddRow(`with,comma`, `with"quote`)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"with,comma\",\"with\"\"quote\"\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestFloatTrimming(t *testing.T) {
	tbl := &Table{Columns: []string{"v"}}
	tbl.AddRow(2.00)
	tbl.AddRow(float32(0.25))
	if tbl.Rows[0][0] != "2" || tbl.Rows[1][0] != "0.25" {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestFigureRenderAlignsSeries(t *testing.T) {
	f := &Figure{
		Title: "Fig", XLabel: "batch", YLabel: "throughput",
		Series: []Series{
			{Name: "tf", X: []float64{4, 8}, Y: []float64{10, 20}},
			{Name: "mxnet", X: []float64{8, 16}, Y: []float64{22, 30}},
		},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tf", "mxnet", "batch", "10", "30"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure missing %q:\n%s", want, out)
		}
	}
	// x=4 row exists with empty mxnet cell; x=16 row with empty tf cell.
	if !strings.Contains(out, "4") || !strings.Contains(out, "16") {
		t.Fatalf("x union broken:\n%s", out)
	}
}

func TestFigureCSVLongForm(t *testing.T) {
	f := &Figure{Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}}}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "series,x,y\ns,1,2\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestFigureCategoricalLabels(t *testing.T) {
	f := &Figure{
		XLabel: "config", YLabel: "v",
		Series: []Series{{Name: "s", XLabels: []string{"1M1G", "2M1G"}, X: []float64{0, 1}, Y: []float64{5, 6}}},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1M1G") {
		t.Fatalf("categorical labels missing:\n%s", buf.String())
	}
}

func TestTableWriteJSON(t *testing.T) {
	tbl := &Table{Title: "K", Columns: []string{"kernel", "ms"}}
	tbl.AddRow("gemm", 1.25)
	tbl.AddRow("conv2d.fwd", 3.5)
	var buf bytes.Buffer
	if err := tbl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title string              `json:"title"`
		Rows  []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "K" || len(got.Rows) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if got.Rows[1]["kernel"] != "conv2d.fwd" || got.Rows[1]["ms"] != "3.5" {
		t.Fatalf("row 1 = %v", got.Rows[1])
	}
}
