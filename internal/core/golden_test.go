package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tbd/internal/device"
	"tbd/internal/framework"
	"tbd/internal/models"
	"tbd/internal/sim"
)

// Golden-file tests pin the rendered form of the static paper artifacts
// so table layout regressions are caught. Regenerate with:
//
//	go run ./cmd/tbd run table2 | tail -n +2 > internal/core/testdata/table2.golden
//	go run ./cmd/tbd run table4 | tail -n +2 > internal/core/testdata/table4.golden
func TestGoldenTables(t *testing.T) {
	for _, id := range []string{"table2", "table4"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tbl := range res.Tables {
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			buf.WriteByte('\n')
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(want) {
			t.Errorf("%s rendering drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", id, buf.String(), want)
		}
	}
}

// TestSimulationDeterministic pins that repeated simulation of the same
// configuration is bit-identical (the memo cache and the model itself are
// pure), down to the order of the per-kernel rows: on ResNet-50/TF/b32
// dgrad_engine, implicit_convolve_sgemm and wgrad_alg0_engine take exactly
// the same time, as do pooling_fw and pooling_bw.
func TestSimulationDeterministic(t *testing.T) {
	m, err := models.Lookup("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfigFor(m, framework.TensorFlow, device.QuadroP4000)
	var first []string
	for i := 0; i < 10; i++ {
		var names []string
		for _, st := range sim.Simulate(m.Ops(), 32, framework.TensorFlow.Style, cfg).PerKernel {
			names = append(names, st.Name)
		}
		if i == 0 {
			first = names
		} else if !slices.Equal(names, first) {
			t.Fatalf("replay %d orders PerKernel differently:\n%v\nvs\n%v", i, names, first)
		}
	}

	run := func() (float64, float64) {
		r, err := AnalyzeEndToEnd("Seq2Seq", "TensorFlow", "", 64)
		if err != nil {
			t.Fatal(err)
		}
		return r.Throughput, r.FP32Util
	}
	t1, u1 := run()
	t2, u2 := run()
	if t1 != t2 || u1 != u2 {
		t.Fatalf("simulation not deterministic: (%g, %g) vs (%g, %g)", t1, u1, t2, u2)
	}
}
