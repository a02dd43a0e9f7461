package tensor

import "fmt"

// fp16-storage, fp32-accumulate GEMM. Inference weights dominate a
// serving process's resident set; storing them as IEEE 754 half values
// cuts that in half while every arithmetic step stays float32 — the B
// operand is widened element by element inside the kernel (VCVTPH2PS on
// the avx2 tier with F16C) and the products and sums are full precision.
// The only accuracy loss is the one-time quantization of each weight to
// the nearest half, bounded by half's 2^-11 relative step.
//
// Two execution paths, chosen per call from the active kernel tier:
//
//	fast      avx2 tier with F16C: B strips are packed as uint16 halves
//	          (pooled uint16 scratch — half the workspace bytes of the
//	          fp32 pack) and fed to the 8x8 half-widening kernel through
//	          the k-blocked nest of gemm_wide.go. Row tails, down to a
//	          single serving sample, run the same nest on zero-padded
//	          rows, so the whole n range takes one code path; ragged
//	          columns are widened once into fp32 scratch and reduced with
//	          dotOne's fixed order.
//	fallback  any other tier (or m < 8): the whole weight matrix is
//	          widened into pooled fp32 scratch and the ordinary fp32 GEMM
//	          runs. Bit-different from the fast path (FMA vs two
//	          roundings) but within the same quantization error bound.
//
// Within one path results are deterministic: the fast path's per-element
// reduction order depends only on the shapes (8-aligned splits, fixed
// kernel chains, dotOne edges), the fallback inherits the fp32 GEMM's
// contract.

// HalfMatrix is a rank-2 weight matrix stored as float16 bit patterns.
// It is immutable after construction and safe for concurrent readers —
// the serving batcher calls MatMulHalfBiasAct from its worker without
// copying the weights.
type HalfMatrix struct {
	rows, cols int
	data       []uint16 // row-major halves, data[p*cols+j] = w(p, j)
}

// NewHalfMatrix quantizes a rank-2 float32 tensor to half storage.
func NewHalfMatrix(t *Tensor) *HalfMatrix {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: NewHalfMatrix needs a rank-2 tensor, got %v", t.Shape()))
	}
	return &HalfMatrix{rows: t.shape[0], cols: t.shape[1], data: EncodeHalf(t.data)}
}

// Bytes returns the resident size of the stored weights.
func (h *HalfMatrix) Bytes() int64 { return int64(len(h.data)) * 2 }

// MatMulHalfBiasAct returns act(a @ w + bias) for a float32 a [N, K] and
// half-stored w [K, M]; bias may be nil and act ActNone, as in
// MatMulBiasAct. Accumulation is float32 throughout.
func MatMulHalfBiasAct(a *Tensor, w *HalfMatrix, bias *Tensor, act ActKind) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulHalfBiasAct needs a rank-2 input, got %v", a.Shape()))
	}
	n, k := a.shape[0], a.shape[1]
	if k != w.rows {
		panic(fmt.Sprintf("tensor: MatMulHalfBiasAct inner dimension mismatch %v @ [%d %d]", a.Shape(), w.rows, w.cols))
	}
	m := w.cols
	var ep *epilogue
	if bias != nil {
		if bias.Rank() != 1 || bias.shape[0] != m {
			panic(fmt.Sprintf("tensor: MatMulHalfBiasAct bias %v, want [%d]", bias.Shape(), m))
		}
		ep = &epilogue{colBias: bias.data, act: act}
	} else if act != ActNone {
		ep = &epilogue{act: act}
	}
	sp := beginGemmSpan("gemm.fp16", n, k, m)
	if sp.Active() {
		// Override the fp32 traffic estimate: the B operand moves half bytes.
		sp.SetBytes(4*int64(n)*int64(k) + 2*int64(k)*int64(m) + 4*int64(n)*int64(m))
	}
	out := acquireDirty(n, m)
	if GemmHalfFast() && m >= microNW {
		gemmHalfPacked(out.data, a.data, w.data, n, k, m, ep)
	} else {
		gemmHalfWiden(out.data, a.data, w.data, n, k, m, ep)
	}
	sp.End()
	return out
}

// gemmHalfWiden is the portable path: widen the whole weight matrix into
// pooled fp32 scratch and run the ordinary fp32 GEMM on the active tier.
func gemmHalfWiden(dst, a []float32, w []uint16, n, k, m int, ep *epilogue) {
	wb := getPackBuf(k * m)
	for i, v := range w {
		wb[i] = HalfToFloat32(v)
	}
	gemmParallel(dst, a, wb, n, k, m, layPlain, false, ep)
	putPackBuf(wb)
}

// gemmHalfPacked is the F16C path: pack B as uint16 strips once (the
// block-major panel of gemm_wide.go, half the bytes), widen the ragged
// columns once, then split output rows on 8-row boundaries.
func gemmHalfPacked(dst, a []float32, w []uint16, n, k, m int, ep *epilogue) {
	m8 := m &^ 7
	bp := getHalfPackBuf(k * m8)
	packMin := 1 + minElemsPerWorker/(8*k+1)
	if rowWorkers(m8/8, packMin) <= 1 {
		packBStripsWide(bp, w, k, m, gemmKC, 0, m8)
	} else {
		parallelRows(m8/8, packMin, func(slo, shi int) {
			packBStripsWide(bp, w, k, m, gemmKC, slo*8, shi*8)
		})
	}
	var eb []float32
	if me := m - m8; me > 0 {
		// Ragged columns widen once into column-major fp32 scratch so the
		// per-row edge reduction is a contiguous dot product.
		eb = getPackBuf(me * k)
		for j := 0; j < me; j++ {
			col := eb[j*k : (j+1)*k]
			for p := 0; p < k; p++ {
				col[p] = HalfToFloat32(w[p*m+m8+j])
			}
		}
	}
	parallelRowsAligned(n, microMW, gemmMinRows(k, m), func(lo, hi int) {
		gemmHalfRows(dst, a, bp, eb, n, k, m, lo, hi, ep)
	})
	if eb != nil {
		putPackBuf(eb)
	}
	putHalfPackBuf(bp)
}

// gemmHalfRows computes output rows [lo, hi) against the packed half
// panel, through the same k-blocked nest as the fp32 wide path
// (kernelHalf8x8 has the tree contract, so the k-split is as exact there).
// The row tail (including n < 8 single-sample serving) runs that nest as
// an 8-row problem on a zero-padded copy of its rows, so every output
// element's reduction order is identical regardless of where it falls in
// n.
func gemmHalfRows(dst, a []float32, bp []uint16, eb []float32, n, k, m, lo, hi int, ep *epilogue) {
	m8 := m &^ 7
	hi8 := lo + (hi-lo)&^7
	gemmWideTiles(dst, a, bp, n, k, m, gemmKC, lo, hi8, layPlain, false, kernelHalf8x8, kernelHalf8x8, func(i0 int) {
		gemmHalfEdgeCols(dst, a, eb, k, m, i0, i0+microMW)
		applyEpilogueRows(dst, m, i0, i0+microMW, ep)
	})
	if hi8 < hi {
		rows := hi - hi8
		pa := getPackBuf(microMW * k)
		copy(pa, a[hi8*k:hi*k])
		clear(pa[rows*k:])
		pd := getPackBuf(microMW * m8)
		gemmWideTiles(pd, pa, bp, microMW, k, m8, gemmKC, 0, microMW, layPlain, false, kernelHalf8x8, kernelHalf8x8, nil)
		for r := 0; r < rows; r++ {
			copy(dst[(hi8+r)*m:(hi8+r)*m+m8], pd[r*m8:(r+1)*m8])
		}
		putPackBuf(pd)
		putPackBuf(pa)
		gemmHalfEdgeCols(dst, a, eb, k, m, hi8, hi)
		applyEpilogueRows(dst, m, hi8, hi, ep)
	}
}

// gemmHalfEdgeCols reduces the ragged columns [m&^7, m) for rows
// [ilo, ihi) against the pre-widened column-major edge panel.
func gemmHalfEdgeCols(dst, a, eb []float32, k, m, ilo, ihi int) {
	m8 := m &^ 7
	if m8 == m {
		return
	}
	me := m - m8
	for i := ilo; i < ihi; i++ {
		arow := a[i*k : (i+1)*k]
		for j := 0; j < me; j++ {
			dst[i*m+m8+j] = dotOne(arow, eb[j*k:(j+1)*k])
		}
	}
}
