package tbd

import (
	"go/build"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLivePlaneImportsNoSimulatedPlane holds the line between the two
// planes. The packages that train, serve, profile and distribute real
// tensors share a model description with the simulator and nothing else:
// through no chain of imports do they reach the simulator, its scheduler
// and exchange schedule, the framework models, the analysis core or the
// what-if predictor. The kernel and device tables stay reachable, since
// models' paper-scale op graphs are built from them, but no package on the
// way imports them but models. Test files are exempt.
func TestLivePlaneImportsNoSimulatedPlane(t *testing.T) {
	simulated := map[string]bool{
		"tbd/internal/sim":       true,
		"tbd/internal/sched":     true,
		"tbd/internal/exchange":  true,
		"tbd/internal/framework": true,
		"tbd/internal/core":      true,
		"tbd/internal/whatif":    true,
	}
	tables := map[string]bool{"tbd/internal/kernels": true, "tbd/internal/device": true}
	for _, dir := range []string{"tensor", "layers", "graph", "optim", "prof", "data", "metrics", "serve", "dist", "models", "../bench"} {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			seen := map[string]bool{}
			var walk func(dir string)
			walk = func(dir string) {
				bp, err := build.ImportDir(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, imp := range bp.Imports {
					if tables[imp] && !tables["tbd/"+dir] && dir != "internal/models" {
						t.Errorf("tbd/%s imports %s", dir, imp)
					}
					if seen[imp] || !strings.HasPrefix(imp, "tbd/") {
						continue
					}
					if seen[imp] = true; simulated[imp] {
						t.Errorf("tbd/%s imports %s", dir, imp)
						continue
					}
					walk(strings.TrimPrefix(imp, "tbd/"))
				}
			}
			walk(path.Join("internal", dir))
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
