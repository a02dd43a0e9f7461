package tensor

// Wide (8x8) packed-GEMM driver for the avx2 tier: the BLIS loop nest with
// a k-loop, over the panel layout of gemm_kernels_wide.go (A tiles store
// plain scalars the kernel broadcasts, B strips are 8 columns wide). The
// fp32 entry points below and the fp16-storage path in gemm_half.go share
// one nest, gemmWideTiles.
//
// Packed B, block-major. The reduction dimension is cut into blocks of
// gemmKC steps; B is packed once per GEMM (in parallel over strips when
// large), one block after another:
//
//	bp[pc*m8 + j0*kc + p*8 + c] = b(pc+p, j0+c)    kc = min(gemmKC, k-pc)
//
// so block pc is a contiguous kc x m8 slab with strip j0 at j0*kc inside
// it. With k <= gemmKC that is one block and strip j0 sits at j0*k.
//
// Loop order: k-blocks outermost, 8-row tiles of the worker's output rows
// next, strips innermost. Per block a worker packs each A tile's kc steps
// (8*kc floats, L1) and streams the whole B block past it, so what is
// re-read once per row tile is a KC x m8 block rather than the full
// k x m8 panel: 1 MB at m = 1024, which stays in a 2 MB L2 where the 4 MB
// panel of a k = 1024 GEMM did not. There is no NC loop: no model in the
// tree has m > 1024, and past that width the block outgrows the L2 it was
// sized for — the loop to add then is over column ranges of the panel.
//
// Why the k-split is bit-exact on this tier. Every output element is one
// sequential FMA chain over k. Block 0 runs the layout's kernel as before
// (tree for plain/transposed-A, seq for transposed-B) and stores float32
// partial sums to dst; every later block runs kernelTree8x8 in accumulate
// mode, which seeds its accumulators from dst and continues the chain.
// Storing and reloading a float32 is exact, so the chain is the one an
// unblocked pass computes, element for element. The one exception is
// transposed-B + accumulate (conv dW, k = oh*ow): its contract is "sum
// from zero, add dst once at the end", which a seeded continuation cannot
// express, so it runs as a single block of depth k (gemmWideKB) — its
// panel is k x c*kh*kw, small in every model here. Edge columns and the
// fused epilogue run once per row tile, after its last block.
//
// Determinism contract (within the avx2 tier): the block decomposition
// depends only on (k, layout, accum), full tiles run the chain above, edge
// columns run the fixed scalar orders of gemmEdgeCols, and
// parallelRowsAligned keeps interior split boundaries on 8-row multiples
// so tile/edge assignment of every row is split-independent. Parallel
// runs are therefore bit-identical to serial runs on the same tier, even
// though the tier itself is only ULP-equivalent to ref/sse.

// gemmKC is the k-block depth: an 8 KB A tile and an 8 KB B strip in L1,
// a KC x 1024 B block (1 MB) in L2.
const gemmKC = 256

// gemmWideKB returns the k-block depth for a GEMM: gemmKC, except that
// transposed-B + accumulate stays one block (see the file header).
func gemmWideKB(k int, lay gemmLayout, accum bool) int {
	if lay == layTransB && accum {
		return k
	}
	return gemmKC
}

// wideWorthIt reports whether the wide packed path applies: at least one
// full 8x8 tile and enough work to amortize packing. Narrower shapes fall
// through to the 4x4 path, which under the avx2 tier still runs the SSE
// assembly (bit-exact with ref), so tiny GEMMs lose no precision.
func wideWorthIt(n, k, m int) bool {
	return n >= microMW && m >= microNW && k >= 2 && n*k*m >= packedMinWork
}

// gemmSerialWide runs one wide-path GEMM on the calling goroutine.
func gemmSerialWide(dst, a, b []float32, n, k, m int, lay gemmLayout, accum bool, ep *epilogue) {
	kb := gemmWideKB(k, lay, accum)
	bp := getPackBuf(k * (m &^ 7))
	packBRangeWide(bp, b, k, m, kb, lay, 0, m&^7)
	gemmPackedRowsWide(dst, a, b, bp, n, k, m, kb, 0, n, lay, accum, ep)
	putPackBuf(bp)
}

// gemmParallelWide is gemmSerialWide with output rows split across the
// worker pool; the caller has already established that more than one
// worker will run. The B panel is packed once (in parallel when large)
// and shared read-only.
func gemmParallelWide(dst, a, b []float32, n, k, m int, lay gemmLayout, accum bool, ep *epilogue) {
	kb := gemmWideKB(k, lay, accum)
	m8 := m &^ 7
	bp := getPackBuf(k * m8)
	packMin := 1 + minElemsPerWorker/(8*k+1)
	if rowWorkers(m8/8, packMin) <= 1 {
		packBRangeWide(bp, b, k, m, kb, lay, 0, m8)
	} else {
		parallelRows(m8/8, packMin, func(slo, shi int) {
			packBRangeWide(bp, b, k, m, kb, lay, slo*8, shi*8)
		})
	}
	parallelRowsAligned(n, microMW, gemmMinRows(k, m), func(lo, hi int) {
		gemmPackedRowsWide(dst, a, b, bp, n, k, m, kb, lo, hi, lay, accum, ep)
	})
	putPackBuf(bp)
}

// gemmPackedRowsWide computes output rows [lo, hi) against a pre-packed
// wide B panel of block depth kb. Full 8-row tiles go through the blocked
// nest; the row tail falls back to the reference kernels and ragged
// columns [m&^7, m) to the shared edge kernels.
func gemmPackedRowsWide(dst, a, b, bp []float32, n, k, m, kb, lo, hi int, lay gemmLayout, accum bool, ep *epilogue) {
	hi8 := lo + (hi-lo)&^7
	first := kernelTree8x8
	if lay == layTransB {
		first = kernelSeq8x8
	}
	gemmWideTiles(dst, a, bp, n, k, m, kb, lo, hi8, lay, accum, first, kernelTree8x8, func(i0 int) {
		gemmEdgeCols(dst, a, b, n, k, m, i0, i0+microMW, lay, accum, m&^7)
		applyEpilogueRows(dst, m, i0, i0+microMW, ep)
	})
	if hi8 < hi {
		gemmRefRange(dst, a, b, n, k, m, lay, accum, hi8, hi)
		applyEpilogueRows(dst, m, hi8, hi, ep)
	}
}

// gemmWideTiles is the k-blocked tile nest over output rows [lo, hi), a
// whole number of 8-row tiles, against a block-major panel of depth kb
// (fp32 or fp16 storage). Block 0 runs first with the caller's accum
// flag; later blocks run rest in accumulate mode, continuing each
// element's chain from dst. done, if non-nil, is called with each tile's
// first row once its last block is in dst.
func gemmWideTiles[T float32 | uint16](dst, a []float32, bp []T, n, k, m, kb, lo, hi int, lay gemmLayout, accum bool,
	first, rest func(dst []float32, ldd int, ap []float32, bp []T, kc int, accum bool), done func(i0 int)) {
	if lo >= hi {
		return
	}
	m8 := m &^ 7
	ap := getPackBuf(microMW * min(kb, k))
	kern := first
	for pc := 0; pc < k; pc += kb {
		kc := min(kb, k-pc)
		blk := bp[pc*m8:]
		for i0 := lo; i0 < hi; i0 += microMW {
			packATileWide(ap, a, n, k, i0, pc, kc, lay)
			d := dst[i0*m:]
			for j0 := 0; j0 < m8; j0 += microNW {
				kern(d[j0:], m, ap, blk[j0*kc:], kc, accum)
			}
			if done != nil && pc+kc == k {
				done(i0)
			}
		}
		kern, accum = rest, true
	}
	putPackBuf(ap)
}

// packATileWide packs reduction steps [pc, pc+kc) of the 8-row micro-tile
// starting at output row i0: ap[p*8+r] = tile row r at step pc+p, plain
// scalars.
func packATileWide(ap, a []float32, n, k, i0, pc, kc int, lay gemmLayout) {
	if lay == layTransA {
		// a is [k, n]; tile rows are the strided columns i0..i0+7, so each
		// reduction step is one contiguous 8-element move.
		src := a[pc*n+i0:]
		for p := 0; p < kc; p++ {
			move8((*[8]float32)(ap[p*8:]), (*[8]float32)(src[p*n:]))
		}
		return
	}
	// Plain and transposed-B share the same [n, k] row-major a. The [:kc]
	// reslices give every row a length the compiler can see, so the loop
	// below runs without bounds checks on its loads.
	r0 := a[i0*k+pc:][:kc]
	r1 := a[(i0+1)*k+pc:][:kc]
	r2 := a[(i0+2)*k+pc:][:kc]
	r3 := a[(i0+3)*k+pc:][:kc]
	r4 := a[(i0+4)*k+pc:][:kc]
	r5 := a[(i0+5)*k+pc:][:kc]
	r6 := a[(i0+6)*k+pc:][:kc]
	r7 := a[(i0+7)*k+pc:][:kc]
	for p := 0; p < kc; p++ {
		q := ap[p*8 : p*8+8]
		q[0], q[1], q[2], q[3] = r0[p], r1[p], r2[p], r3[p]
		q[4], q[5], q[6], q[7] = r4[p], r5[p], r6[p], r7[p]
	}
}

// packBRangeWide packs B column strips [jlo, jhi) (both multiples of 8)
// of every k-block into the block-major panel bp (layout in the file
// header). Transposed-B gathers down eight b rows at once, strip by strip,
// so each row is read straight through while its blocks are written in
// turn; the other layouts read b's rows across (packBStripsWide).
func packBRangeWide(bp, b []float32, k, m, kb int, lay gemmLayout, jlo, jhi int) {
	if lay != layTransB {
		packBStripsWide(bp, b, k, m, kb, jlo, jhi)
		return
	}
	m8 := m &^ 7
	for j0 := jlo; j0 < jhi; j0 += 8 {
		for pc := 0; pc < k; pc += kb {
			kc := min(kb, k-pc)
			s0 := b[j0*k+pc:][:kc]
			s1 := b[(j0+1)*k+pc:][:kc]
			s2 := b[(j0+2)*k+pc:][:kc]
			s3 := b[(j0+3)*k+pc:][:kc]
			s4 := b[(j0+4)*k+pc:][:kc]
			s5 := b[(j0+5)*k+pc:][:kc]
			s6 := b[(j0+6)*k+pc:][:kc]
			s7 := b[(j0+7)*k+pc:][:kc]
			strip := bp[pc*m8+j0*kc:][:8*kc]
			for p := 0; p < kc; p++ {
				q := strip[p*8 : p*8+8]
				q[0], q[1], q[2], q[3] = s0[p], s1[p], s2[p], s3[p]
				q[4], q[5], q[6], q[7] = s4[p], s5[p], s6[p], s7[p]
			}
		}
	}
}

// packBStripsWide is the row-major-b case of packBRangeWide (plain and
// transposed-A layouts, and the fp16 weights of gemm_half.go): each
// reduction step of a strip is 8 contiguous source elements. Strips are
// packed four abreast, so one step reads 32 contiguous elements — whole
// cache lines, each fetched once — where a single strip reads half a line
// per source row and comes back for the other half a block later.
func packBStripsWide[T float32 | uint16](bp, b []T, k, m, kb, jlo, jhi int) {
	m8 := m &^ 7
	for pc := 0; pc < k; pc += kb {
		kc := min(kb, k-pc)
		blk := bp[pc*m8:]
		j0 := jlo
		for ; j0+32 <= jhi; j0 += 32 {
			q0 := blk[j0*kc:][:8*kc]
			q1 := blk[(j0+8)*kc:][:8*kc]
			q2 := blk[(j0+16)*kc:][:8*kc]
			q3 := blk[(j0+24)*kc:][:8*kc]
			src := b[pc*m+j0:]
			for p := 0; p < kc; p++ {
				s := (*[32]T)(src[p*m:])
				move8((*[8]T)(q0[p*8:]), (*[8]T)(s[0:8]))
				move8((*[8]T)(q1[p*8:]), (*[8]T)(s[8:16]))
				move8((*[8]T)(q2[p*8:]), (*[8]T)(s[16:24]))
				move8((*[8]T)(q3[p*8:]), (*[8]T)(s[24:32]))
			}
		}
		for ; j0 < jhi; j0 += 8 {
			q := blk[j0*kc:][:8*kc]
			src := b[pc*m+j0:]
			for p := 0; p < kc; p++ {
				move8((*[8]T)(q[p*8:]), (*[8]T)(src[p*m:]))
			}
		}
	}
}

// move8 copies 8 elements as scalar loads and stores. The pack loops move
// 8 elements at a time by the hundred thousand; copy() is a memmove call
// each time and an array assignment between two slices compiles to one
// too (they may overlap), at about twice the cost of this.
func move8[T float32 | uint16](d, s *[8]T) {
	d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
}
