package tbd

import (
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLivePlaneImportsNoSimulatedPlane holds the line between the two
// planes. The packages that train, serve, profile and distribute real
// tensors share a model description with the simulator and nothing else:
// none of them imports the simulator, its kernel and device tables, the
// framework models, the analysis core or the what-if predictor.
// Test files are exempt.
func TestLivePlaneImportsNoSimulatedPlane(t *testing.T) {
	simulated := map[string]bool{
		"tbd/internal/sim":       true,
		"tbd/internal/kernels":   true,
		"tbd/internal/device":    true,
		"tbd/internal/framework": true,
		"tbd/internal/core":      true,
		"tbd/internal/whatif":    true,
	}
	for _, pkg := range []string{"tensor", "layers", "graph", "optim", "prof", "data", "metrics", "serve", "dist"} {
		t.Run(pkg, func(t *testing.T) {
			bp, err := build.ImportDir(filepath.Join("internal", pkg), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range bp.Imports {
				if simulated[imp] {
					t.Errorf("%s imports %s", bp.ImportPos[imp][0], imp)
				}
			}
		})
	}
}

// TestNoPackageImportsGob holds every process boundary to the one frame
// codec of internal/dist: no package, and no package's tests, import
// encoding/gob, whose decoder allocates from lengths on the wire.
func TestNoPackageImportsGob(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		for _, imps := range [][]string{bp.Imports, bp.TestImports, bp.XTestImports} {
			if slices.Contains(imps, "encoding/gob") {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
