package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"tbd/internal/tensor"
)

// twinPinSteps is long enough that the classifier twins' curves average
// two steps per point.
const twinPinSteps = 48

// twinCurvePins hash TrainTwin's curve (every point's FracDone and Value
// as float64 bits) at twinPinSteps steps and seed 1, recorded before the
// twins were declared on their models. A3C is left out: its workers apply
// their updates in whatever order the scheduler runs them. GEMM tiers
// round differently, so each tier has its own set.
//
// Inception-v3 and Transformer were re-recorded with the declarations:
// before them, TrainTwin initialised a ResNet (a Seq2Seq) twin from the
// run's generator and threw it away before building the Inception
// (Transformer) twin, so those two curves started from a shifted stream
// and differed from Figure 2's panels at the same seed. With that draw
// put back, the declarations reproduce the earlier hashes
// (0xfcdedfd3798fab39, 0xdfe080afeb977dcc on every tier).
var twinCurvePins = map[string]map[string]uint64{
	"ref":  twinCurvePinsExact,
	"sse":  twinCurvePinsExact,
	"avx2": twinCurvePinsFMA,
}

var twinCurvePinsExact = map[string]uint64{
	"ResNet-50":     0xa7245b4f693dd9ee,
	"Inception-v3":  0xadb00e11c00175fe,
	"Seq2Seq":       0xda845f5f6afa76b9,
	"Transformer":   0xf36476a3384580c,
	"Faster R-CNN":  0x4e8fee1050270d73,
	"Deep Speech 2": 0x94d939a371d37d5,
	"WGAN":          0x947acb6329ea9a86,
	"YOLO9000":      0x4e8fee1050270d73,
}

var twinCurvePinsFMA = map[string]uint64{
	"ResNet-50":     0xa7245b4f693dd9ee,
	"Inception-v3":  0xadb00e11c00175fe,
	"Seq2Seq":       0xda845f5f6afa76b9,
	"Transformer":   0xf36476a3384580c,
	"Faster R-CNN":  0x4e8fee1050270d73,
	"Deep Speech 2": 0x94d939a371d37d5,
	"WGAN":          0xedced254e96f0f01,
	"YOLO9000":      0x4e8fee1050270d73,
}

func curveHash(pts []TwinPoint) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range pts {
		for _, v := range []float64{p.FracDone, p.Value} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestTwinCurvesMatchParentCommit(t *testing.T) {
	defer tensor.SetDebugPoisonReleased(tensor.SetDebugPoisonReleased(true))
	for _, tier := range []string{"ref", "sse", "avx2"} {
		t.Run(tier, func(t *testing.T) {
			prev, err := tensor.SetGemmKernelTier(tier)
			if err != nil {
				t.Skipf("tier %s: %v", tier, err)
			}
			defer func() { _, _ = tensor.SetGemmKernelTier(prev) }()
			for _, model := range []string{
				"ResNet-50", "Inception-v3", "Seq2Seq", "Transformer",
				"Faster R-CNN", "Deep Speech 2", "WGAN", "YOLO9000",
			} {
				run, err := TrainTwin(model, twinPinSteps, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := curveHash(run.Points), twinCurvePins[tier][model]; got != want {
					t.Errorf("%s/%s: curve %#x, pinned %#x", tier, model, got, want)
				}
			}
		})
	}
}
