package core

import (
	"bytes"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Fig2Steps: 40} }

func TestExperimentRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "fig2", "table4",
		"fig4", "fig5", "fig6", "table5", "table6",
		"fig7", "fig8", "fig9", "fig10",
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Description == "" || exps[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, err := Lookup("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestTable1Counts(t *testing.T) {
	r, err := runTable1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tbl := range r.Tables {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	// The paper's headline ratios: 25 inference vs 16 training papers,
	// image-only dominating broader workloads. (The caption's "4 both" /
	// "26 image-only" are off by one against its own citation lists; we
	// report the recomputed 5 and 25 — see EXPERIMENTS.md.)
	for _, want := range []string{"25", "16", "11"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing count %s:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "papers doing both") {
		t.Fatal("table 1 missing the both-count row")
	}
}

func TestTable2ListsAllModels(t *testing.T) {
	r, err := runTable2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Tables[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"ResNet-50", "Inception-v3", "Seq2Seq", "Transformer", "Faster R-CNN", "Deep Speech 2", "WGAN", "A3C"} {
		if !strings.Contains(buf.String(), m) {
			t.Fatalf("table 2 missing %s", m)
		}
	}
}

func TestTable3and4Render(t *testing.T) {
	for _, id := range []string{"table3", "table4"} {
		e, _ := Lookup(id)
		r, err := e.Run(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Tables[0].Render(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s rendered empty", id)
		}
	}
	r, _ := runTable3(quickOpts())
	var buf bytes.Buffer
	r.Tables[0].Render(&buf)
	if !strings.Contains(buf.String(), "17188") {
		t.Fatal("table 3 missing the IWSLT15 vocabulary size")
	}
	r4, _ := runTable4(quickOpts())
	buf.Reset()
	r4.Tables[0].Render(&buf)
	for _, want := range []string{"1792", "3840", "243", "547.6"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table 4 missing %q", want)
		}
	}
}

func TestTables5And6MatchPaperStructure(t *testing.T) {
	for _, id := range []string{"table5", "table6"} {
		e, _ := Lookup(id)
		r, err := e.Run(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		tbl := r.Tables[0]
		if len(tbl.Rows) != 5 {
			t.Fatalf("%s has %d rows, want 5", id, len(tbl.Rows))
		}
		joined := strings.Join(tbl.Columns, "|")
		if !strings.Contains(joined, "Duration") || !strings.Contains(joined, "Utilization") {
			t.Fatalf("%s columns = %v", id, tbl.Columns)
		}
		var text bytes.Buffer
		tbl.Render(&text)
		// The paper's bn kernels must appear in both framework tables.
		if !strings.Contains(text.String(), "bn_bw_1C11_kernel_new") && !strings.Contains(text.String(), "bn_fw_tr_1C11_kernel_new") {
			t.Fatalf("%s missing batch-norm kernels:\n%s", id, text.String())
		}
	}
	// Framework-specific kernels differ between the two tables.
	r5, _ := runTable5(quickOpts())
	r6, _ := runTable6(quickOpts())
	var b5, b6 bytes.Buffer
	r5.Tables[0].Render(&b5)
	r6.Tables[0].Render(&b6)
	if b5.String() == b6.String() {
		t.Fatal("tables 5 and 6 should differ by framework kernel names")
	}
}

func TestFig4ThroughputShapes(t *testing.T) {
	r, err := runFig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != 8 {
		t.Fatalf("fig4 has %d panels, want 8", len(r.Figures))
	}
	for _, fig := range r.Figures {
		for _, s := range fig.Series {
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1]*0.999 {
					t.Fatalf("%s series %s throughput decreasing at %g", fig.Title, s.Name, s.X[i])
				}
			}
		}
	}
}

func TestFig5UtilizationBounded(t *testing.T) {
	r, err := runFig5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range r.Figures {
		for _, s := range fig.Series {
			for _, y := range s.Y {
				if y < 0 || y > 1 {
					t.Fatalf("%s/%s utilization %g out of range", fig.Title, s.Name, y)
				}
			}
		}
	}
}

func TestFig6RNNLowerThanCNN(t *testing.T) {
	r, err := runFig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(title string) *float64 {
		for _, fig := range r.Figures {
			if strings.Contains(fig.Title, title) {
				last := fig.Series[0].Y[len(fig.Series[0].Y)-1]
				return &last
			}
		}
		return nil
	}
	cnn := get("ResNet-50")
	rnn := get("Seq2Seq")
	if cnn == nil || rnn == nil {
		t.Fatal("missing fig6 panels")
	}
	if *rnn >= *cnn {
		t.Fatalf("seq2seq FP32 util %.2f should be below ResNet %.2f", *rnn, *cnn)
	}
}

func TestFig7FourteenConfigs(t *testing.T) {
	r, err := runFig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := r.Figures[0].Series[0]
	if len(s.Y) != 14 {
		t.Fatalf("fig7 has %d bars, want 14", len(s.Y))
	}
	// A3C is the highest CPU consumer; CNTK configs the lowest.
	maxI, minI := 0, 0
	for i := range s.Y {
		if s.Y[i] > s.Y[maxI] {
			maxI = i
		}
		if s.Y[i] < s.Y[minI] {
			minI = i
		}
	}
	if !strings.Contains(s.XLabels[maxI], "A3C") {
		t.Fatalf("highest CPU util is %s, want A3C", s.XLabels[maxI])
	}
	if !strings.Contains(s.XLabels[minI], "CNTK") {
		t.Fatalf("lowest CPU util is %s, want a CNTK config", s.XLabels[minI])
	}
}

func TestFig8TitanXpStory(t *testing.T) {
	r, err := runFig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != 6 {
		t.Fatalf("fig8 has %d panels, want 6", len(r.Figures))
	}
	for _, fig := range r.Figures {
		xp, p4 := fig.Series[0], fig.Series[1]
		if !strings.Contains(xp.Name, "TITAN") || !strings.Contains(p4.Name, "P4000") {
			t.Fatalf("series order wrong in %s", fig.Title)
		}
		for i := range xp.Y {
			if strings.Contains(fig.Title, "Normalized throughput") {
				if p4.Y[i] != 1 {
					t.Fatalf("%s: P4000 must normalize to 1", fig.Title)
				}
				if xp.Y[i] <= 1 {
					t.Fatalf("%s: Titan Xp should be faster (%.2f)", fig.Title, xp.Y[i])
				}
			} else if xp.Y[i] > p4.Y[i]+1e-9 {
				t.Fatalf("%s: Titan Xp utilization %.2f should not exceed P4000 %.2f", fig.Title, xp.Y[i], p4.Y[i])
			}
		}
	}
}

func TestFig9BreakdownConsistent(t *testing.T) {
	r, err := runFig9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	if len(tbl.Rows) < 20 {
		t.Fatalf("fig9 has only %d rows", len(tbl.Rows))
	}
	var text bytes.Buffer
	tbl.Render(&text)
	for _, want := range []string{"ResNet-50", "Sockeye", "NMT", "Deep Speech 2", "Transformer", "A3C", "WGAN"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("fig9 missing %s", want)
		}
	}
}

func TestFig10EthernetCollapse(t *testing.T) {
	r, err := runFig10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := r.Figures[0]
	byName := map[string][]float64{}
	for _, s := range fig.Series {
		byName[s.Name] = s.Y
	}
	if len(byName) != 5 {
		t.Fatalf("fig10 has %d series, want 5", len(byName))
	}
	for i := range byName["1M1G"] {
		if byName["2M1G (ethernet)"][i] >= byName["1M1G"][i] {
			t.Fatal("ethernet 2M must underperform a single GPU")
		}
		if byName["2M1G (infiniband)"][i] <= byName["1M1G"][i] {
			t.Fatal("infiniband 2M must outperform a single GPU")
		}
		if byName["1M4G"][i] <= byName["1M2G"][i] {
			t.Fatal("4 GPUs must beat 2")
		}
	}
}

func TestFig2CurvesConverge(t *testing.T) {
	r, err := runFig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Figures) != 5 {
		t.Fatalf("fig2 has %d panels, want 5", len(r.Figures))
	}
	for _, fig := range r.Figures {
		if strings.Contains(fig.Title, "A3C") {
			continue // short quick-mode A3C runs are noisy; covered in models tests
		}
		for _, s := range fig.Series {
			if len(s.Y) < 5 {
				t.Fatalf("%s/%s has only %d points", fig.Title, s.Name, len(s.Y))
			}
			// Training improves: last quarter above first quarter.
			q := len(s.Y) / 4
			var first, last float64
			for i := 0; i < q; i++ {
				first += s.Y[i]
				last += s.Y[len(s.Y)-1-i]
			}
			if last <= first {
				t.Fatalf("%s/%s did not improve (%.3f -> %.3f)", fig.Title, s.Name, first/float64(q), last/float64(q))
			}
			// Time axis strictly increasing and positive.
			for i := 1; i < len(s.X); i++ {
				if s.X[i] <= s.X[i-1] {
					t.Fatalf("%s/%s time axis not increasing", fig.Title, s.Name)
				}
			}
		}
	}
}

func TestFig2FrameworkTimeAxesDiffer(t *testing.T) {
	r, err := runFig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range r.Figures {
		if !strings.Contains(fig.Title, "ResNet-50") {
			continue
		}
		if len(fig.Series) != 3 {
			t.Fatalf("ResNet panel has %d series, want 3 frameworks", len(fig.Series))
		}
		endTimes := map[string]float64{}
		for _, s := range fig.Series {
			endTimes[s.Name] = s.X[len(s.X)-1]
		}
		// MXNet's faster implementation should finish earlier than CNTK's.
		if endTimes["ResNet-50 (MXNet)"] >= endTimes["ResNet-50 (CNTK)"] {
			t.Fatalf("framework time axes not differentiated: %v", endTimes)
		}
	}
}

func TestAllObservationsHold(t *testing.T) {
	for _, r := range CheckAll(Options{}) {
		if !r.Holds {
			t.Errorf("observation %d (%s) failed: %s", r.ID, r.Claim, r.Detail)
		}
	}
}

func TestRunAll(t *testing.T) {
	for _, e := range Experiments() {
		r, err := e.Run(quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(r.Tables)+len(r.Figures) == 0 {
			t.Fatalf("experiment %s produced no artifacts", r.ID)
		}
	}
}
