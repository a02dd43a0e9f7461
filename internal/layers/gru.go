package layers

import (
	"math"

	"tbd/internal/tensor"
)

// GRU is a gated recurrent unit layer over [N, T, In] producing [N, T, H].
// Deep Speech 2's recurrent stack uses GRUs in several configurations.
type GRU struct{ recurrent }

// NewGRU constructs a GRU layer.
func NewGRU(name string, in, h int, rng *tensor.RNG) *GRU {
	return &GRU{newRecurrent(name, in, h, gruCell, rng)}
}

// gruCell has gate order z, r, n in Wx, Wh and B. The reset gate scales
// only the h side of the candidate, so zx and zh stay apart and their
// gradients differ.
var gruCell = cell{gates: 3, planes: 5, forward: gruForward, backward: gruBackward}

// gruState names the parts of one GRU timestep's state: h, the three
// activated gates laid out like their pre-activations [N, 3H], and
// h_{t-1}·Whn, the candidate's h-side term before the reset gate.
func gruState(s []float32, nh int) (h, act, hWhn []float32) {
	return s[:nh], s[nh : 4*nh], s[4*nh:]
}

func gruForward(n, H int, zx, zh, bias, prev, cur []float32) {
	h, act, hWhn := gruState(cur, n*H)
	for b := 0; b < n; b++ {
		zxr, zhr, ar := zx[b*3*H:(b+1)*3*H], zh[b*3*H:(b+1)*3*H], act[b*3*H:(b+1)*3*H]
		for j := 0; j < H; j++ {
			k := b*H + j
			zv := tensor.Sigmoid32(zxr[j] + zhr[j] + bias[j])
			rv := tensor.Sigmoid32(zxr[H+j] + zhr[H+j] + bias[H+j])
			hn := zhr[2*H+j]
			nv := float32(math.Tanh(float64(zxr[2*H+j] + rv*hn + bias[2*H+j])))
			ar[j], ar[H+j], ar[2*H+j], hWhn[k] = zv, rv, nv, hn
			h[k] = (1-zv)*nv + zv*prev[k]
		}
	}
}

func gruBackward(n, H int, g, prev, cur []float32, dzx, dzh *tensor.Tensor, b *Param, ghPrev, _ []float32) {
	_, act, hWhn := gruState(cur, n*H)
	bg := b.gradAccum()
	for bi := 0; bi < n; bi++ {
		zxr, zhr, ar := dzx.Data()[bi*3*H:(bi+1)*3*H], dzh.Data()[bi*3*H:(bi+1)*3*H], act[bi*3*H:(bi+1)*3*H]
		for j := 0; j < H; j++ {
			k := bi*H + j
			zv, rv, nv := ar[j], ar[H+j], ar[2*H+j]
			// h = (1-z)*n + z*hPrev
			dn := g[k] * (1 - zv)
			dzGate := g[k] * (prev[k] - nv)
			ghPrev[k] += g[k] * zv
			// n = tanh(zx_n + r*(hPrev@Whn) + b_n)
			dpre := dn * (1 - nv*nv)
			drGate := dpre * hWhn[k]
			dzSig := dzGate * zv * (1 - zv)
			drSig := drGate * rv * (1 - rv)
			zxr[j], zhr[j] = dzSig, dzSig
			zxr[H+j], zhr[H+j] = drSig, drSig
			zxr[2*H+j], zhr[2*H+j] = dpre, dpre*rv
			bg[j] += dzSig
			bg[H+j] += drSig
			bg[2*H+j] += dpre
		}
	}
}
