package tensor

import "fmt"

// Frozen inference weights. A served network's weight matrices do not
// change between forwards, so each is frozen once into the layout the
// avx2 GEMM reads: the k-blocked 8-column panel of gemm_wide.go
// (block-major, depth gemmKC), which the driver otherwise packs on every
// call, plus the ragged columns [m&^7, m) stored column-major as float32,
// one contiguous dot product per output row each. The frozen matrix
// replaces the layer's fp32 weights; nothing else keeps them.
//
// The panel is stored as fp32 or as fp16 (IEEE 754 half bit patterns,
// half the bytes). fp16 B elements are widened in-register by the kernel
// (VCVTPH2PS, F16C) and every product and sum stays float32, so the one
// accuracy loss is the quantization of each weight to the nearest half,
// bounded by half's 2^-11 relative step. The edge columns of an fp16
// matrix hold the quantized values, widened once at freeze time.
//
// Two execution paths, chosen per call from the active kernel tier:
//
//	panel   avx2 tier (with F16C for fp16 storage): the k-blocked tile
//	        nest of gemm_wide.go runs straight off the frozen panel. A row
//	        tail, down to a single serving sample, runs the same nest as
//	        an 8-row problem on zero-padded rows, so each output row's bits
//	        depend only on that input row: not on n, on the row's position
//	        in the batch or on the worker split. In full 8-row tiles an
//	        fp32 matrix gives the unfrozen wide GEMM's bits: the same
//	        panel, kernels, edge-column order and epilogue.
//	unpack  any other tier: the panel is unpacked into pooled fp32 scratch
//	        (the row-major [k, m] matrix) and the ordinary GEMM runs, bit
//	        for bit the unfrozen GEMM on the same values.

// FrozenMatrix is a rank-2 weight matrix [k, m] frozen for inference
// (layout in the file header). It is immutable and safe for concurrent
// readers: every replica of a serving fleet runs its forwards off one.
type FrozenMatrix struct {
	k, m  int
	panel []float32 // fp32 storage: the k x m&^7 block-major panel
	half  []uint16  // fp16 storage: the same panel as half bit patterns
	edge  []float32 // edge[j*k+p] = w(p, m&^7+j), column-major
}

// Freeze returns the frozen form of the rank-2 weight matrix t, with fp16
// storage when half. t is only read.
func Freeze(t *Tensor, half bool) *FrozenMatrix {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Freeze needs a rank-2 tensor, got %v", t.Shape()))
	}
	k, m := t.shape[0], t.shape[1]
	m8 := m &^ 7
	w := &FrozenMatrix{k: k, m: m, edge: make([]float32, k*(m-m8))}
	src := t.data
	if half {
		h := EncodeHalf(src)
		w.half = make([]uint16, k*m8)
		packBStripsWide(w.half, h, k, m, gemmKC, 0, m8)
		src = DecodeHalf(h) // the quantized values, for the edge columns
	} else {
		w.panel = make([]float32, k*m8)
		packBStripsWide(w.panel, src, k, m, gemmKC, 0, m8)
	}
	for j := m8; j < m; j++ {
		col := w.edge[(j-m8)*k:][:k]
		for p := range col {
			col[p] = src[p*m+j]
		}
	}
	return w
}

// Bytes returns the resident size of the frozen weights: k·m·4 for fp32
// storage, two bytes a panel weight and four an edge weight for fp16.
func (w *FrozenMatrix) Bytes() int64 {
	return 4*int64(len(w.panel)+len(w.edge)) + 2*int64(len(w.half))
}

// Shape returns the matrix's dimensions [k, m].
func (w *FrozenMatrix) Shape() (k, m int) { return w.k, w.m }

// MatMulFrozenBiasAct returns act(a @ w + bias) for a float32 a [n, k]
// and a frozen w [k, m]; bias may be nil and act ActNone, as in
// MatMulBiasAct. Accumulation is float32 throughout.
func MatMulFrozenBiasAct(a *Tensor, w *FrozenMatrix, bias *Tensor, act ActKind) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulFrozenBiasAct needs a rank-2 input, got %v", a.Shape()))
	}
	n, k, m := a.shape[0], a.shape[1], w.m
	if k != w.k {
		panic(fmt.Sprintf("tensor: MatMulFrozenBiasAct inner dimension mismatch %v @ [%d %d]", a.Shape(), w.k, w.m))
	}
	ep := epilogue{act: act}
	if bias != nil {
		if bias.Rank() != 1 || bias.shape[0] != m {
			panic(fmt.Sprintf("tensor: MatMulFrozenBiasAct bias %v, want [%d]", bias.Shape(), m))
		}
		ep.colBias = bias.data
	}
	name := "gemm.frozen"
	if w.half != nil {
		name = "gemm.fp16"
	}
	sp := beginGemmSpan(name, n, k, m)
	if sp.Active() {
		sp.SetBytes(4*int64(n)*int64(k) + w.Bytes() + 4*int64(n)*int64(m))
	}
	out := acquireDirty(n, m)
	if currentGemmTier() != tierAVX2 || w.half != nil && !GemmHalfFast() {
		wb := getPackBuf(k * m)
		w.unpack(wb)
		gemmParallel(out.data, a.data, wb, n, k, m, layPlain, false, &ep)
		putPackBuf(wb)
	} else {
		parallelRows(n, microMW, gemmMinRows(k, m), frozenRows, rowArgs{dst: out.data, a: a.data, n: n, w: w, ep: ep})
	}
	sp.End()
	return out
}

// frozenRows is MatMulFrozenBiasAct's body: output rows [lo, hi).
func frozenRows(r rowArgs, lo, hi int) { r.w.rows(r.dst, r.a, r.n, lo, hi, r.epi()) }

// rows computes output rows [lo, hi) of the [n, m] dst off the panel:
// whole 8-row tiles in place, then the tail as one zero-padded tile in
// scratch, so a tail row takes the very instructions a tile row does.
func (w *FrozenMatrix) rows(dst, a []float32, n, lo, hi int, ep *epilogue) {
	k, m := w.k, w.m
	hi8 := lo + (hi-lo)&^7
	w.tiles(dst, a, n, lo, hi8, ep)
	if hi8 == hi {
		return
	}
	pa := getPackBuf(microMW * k)
	copy(pa, a[hi8*k:hi*k])
	clear(pa[(hi-hi8)*k:])
	pd := getPackBuf(microMW * m)
	w.tiles(pd, pa, microMW, 0, microMW, ep)
	copy(dst[hi8*m:hi*m], pd)
	putPackBuf(pd)
	putPackBuf(pa)
}

// tiles runs the k-blocked nest over the whole 8-row tiles of rows
// [lo, hi); each tile's edge columns and epilogue follow its last block.
func (w *FrozenMatrix) tiles(dst, a []float32, n, lo, hi int, ep *epilogue) {
	k, m := w.k, w.m
	done := func(i0 int) {
		w.edgeCols(dst, a, i0, i0+microMW)
		applyEpilogueRows(dst, m, i0, i0+microMW, ep)
	}
	if w.half != nil {
		gemmWideTiles(dst, a, w.half, n, k, m, gemmKC, lo, hi, layPlain, false, kernelHalf8x8, kernelHalf8x8, done)
	} else {
		gemmWideTiles(dst, a, w.panel, n, k, m, gemmKC, lo, hi, layPlain, false, kernelTree8x8, kernelTree8x8, done)
	}
}

// edgeCols reduces the ragged columns for rows [ilo, ihi). fp32 storage
// keeps gemmEdgeCols' plain-layout order (grouped fours, then a scalar
// tail), which is what makes a tile row the unfrozen GEMM's bits; fp16
// keeps dotOne's four running sums.
func (w *FrozenMatrix) edgeCols(dst, a []float32, ilo, ihi int) {
	k, m := w.k, w.m
	m8 := m &^ 7
	if w.half == nil {
		edgeColsPlain(dst, a, w.edge, k, m, ilo, ihi)
		return
	}
	for i := ilo; i < ihi; i++ {
		arow := a[i*k:][:k]
		for j := m8; j < m; j++ {
			dst[i*m+j] = dotOne(arow, w.edge[(j-m8)*k:][:k])
		}
	}
}

// edgeColsPlain overwrites the ragged columns [m&^7, m) of rows
// [ilo, ihi) of a plain-layout product whose b columns are kept
// column-major beside the panel, edge[(j-m&^7)*k+p] = b(p, j), in
// gemmEdgeCols' plain order: grouped fours, then a scalar tail.
func edgeColsPlain(dst, a, edge []float32, k, m, ilo, ihi int) {
	m8 := m &^ 7
	for i := ilo; i < ihi; i++ {
		arow := a[i*k:][:k]
		for j := m8; j < m; j++ {
			col := edge[(j-m8)*k:][:k]
			var c float32
			p := 0
			for ; p+4 <= k; p += 4 {
				c += arow[p]*col[p] + arow[p+1]*col[p+1] + arow[p+2]*col[p+2] + arow[p+3]*col[p+3]
			}
			for ; p < k; p++ {
				c += arow[p] * col[p]
			}
			dst[i*m+j] = c
		}
	}
}

// unpack writes the matrix's values, row-major [k, m], into dst.
func (w *FrozenMatrix) unpack(dst []float32) {
	k, m := w.k, w.m
	m8 := m &^ 7
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		for j0 := 0; j0 < m8; j0 += 8 {
			off := pc*m8 + j0*kc
			for p := 0; p < kc; p++ {
				row := (*[8]float32)(dst[(pc+p)*m+j0:])
				if w.half != nil {
					for c, h := range (*[8]uint16)(w.half[off+p*8:]) {
						row[c] = HalfToFloat32(h)
					}
				} else {
					move8(row, (*[8]float32)(w.panel[off+p*8:]))
				}
			}
		}
	}
	for j := m8; j < m; j++ {
		for p, v := range w.edge[(j-m8)*k:][:k] {
			dst[p*m+j] = v
		}
	}
}
