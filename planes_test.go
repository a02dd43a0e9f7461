package tbd

import (
	"go/build"
	"path/filepath"
	"testing"
)

// TestLivePlaneImportsNoSimulatedPlane holds the line between the two
// planes. The packages that train, serve, profile and distribute real
// tensors share a model description with the simulator and nothing else:
// none of them imports the simulator, its kernel and device tables, the
// framework models, the simulated timeline tooling, the analysis core or
// the what-if predictor.
// Test files are exempt.
func TestLivePlaneImportsNoSimulatedPlane(t *testing.T) {
	simulated := map[string]bool{
		"tbd/internal/sim":       true,
		"tbd/internal/kernels":   true,
		"tbd/internal/device":    true,
		"tbd/internal/framework": true,
		"tbd/internal/trace":     true,
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
