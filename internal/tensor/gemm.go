package tensor

// BLIS-style packed GEMM core. The driver packs panels of both operands
// into contiguous pooled scratch and hands them to a register-tiled
// 4x4 micro-kernel (SSE assembly on amd64, pure Go elsewhere — see
// gemm_kernels.go); ragged remainders fall back to the PR 1 reference
// kernels in gemm_ref.go.
//
// Layout of the packed panels:
//
//   A panel (one 4-row micro-tile, all k):   ap[(p*4+r)*4 + lane] = a(i0+r, p)
//     Each element is replicated across 4 lanes so the micro-kernel loads
//     it with one 16-byte MOVUPS instead of a scalar load + shuffle —
//     broadcasts would serialize on the shuffle port, loads dual-issue.
//   B panel (one 4-column strip, all k):     bp[j0*k + p*4 + c] = b(p, j0+c)
//     Column strips are stored back to back, so strip j0 starts at
//     bp[j0*k] and streams contiguously over p.
//
// Bit-identity contract: every output element is reduced in exactly the
// order the reference kernels use. Plain and transposed-A reduce k in
// groups of four combined as one expression tree plus a scalar tail
// (valid against the reference's k-blocking because gemmBlockK % 4 == 0);
// transposed-B reduces strictly sequentially, with dst added once at the
// end in accumulate mode. Row tiling, column strip order, worker splits,
// and packing never touch the per-element order, so the packed kernels,
// the reference kernels, and the serial path all produce identical bits.
//
// Fused epilogues: an optional bias-add + activation is applied to each
// block of output rows (4 here, 8 in the wide and fp16 drivers) as soon as
// its columns are complete — after the full k reduction, matching the
// unfused "GEMM, then bias pass, then activation pass" composition element
// for element while the block is still hot in L1. Every driver reaches the
// one function below, applyEpilogueRows, which runs the pointwise kernels
// of elem.go a row at a time: vector bodies on the avx2 tier, portable
// ones elsewhere, the same bits from both.

const (
	// microM x microN is the register tile: 4 output rows x 4 output
	// columns (one SSE vector wide), 4 accumulator vectors live.
	microM = 4
	microN = 4
	// packedMinWork gates the packed path: below this many multiply-adds
	// the packing traffic costs more than the micro-kernel saves, and the
	// reference kernels win. Both paths are bit-identical, so the gate is
	// a pure performance heuristic.
	packedMinWork = 1 << 13
)

// gemmLayout selects which operand is logically transposed.
type gemmLayout uint8

const (
	layPlain  gemmLayout = iota // dst = a [n,k] @ b [k,m]
	layTransA                   // dst = aᵀ @ b for a [k,n], b [k,m]
	layTransB                   // dst = a @ bᵀ for a [n,k], b [m,k]
)

// epilogue is a fused write-back transform: optional per-column bias
// (dense layers), optional per-row bias (conv channels), then an
// activation. Only meaningful in overwrite mode.
type epilogue struct {
	colBias []float32 // len m, added to every row; nil = none
	rowBias []float32 // len n, rowBias[i] added across row i; nil = none
	act     ActKind
}

// heapCopy returns a copy of ep (nil for nil) for a closure that escapes
// to the worker pool. Capturing ep itself would move every caller's
// epilogue to the heap, on the serial path too.
func (ep *epilogue) heapCopy() *epilogue {
	if ep == nil {
		return nil
	}
	c := *ep
	return &c
}

// applyEpilogueRows applies ep to dst rows [lo, hi) of an [n, m] matrix.
// Bias precedes activation, matching the unfused layer composition: the
// column bias and the row bias are two separately rounded adds, in that
// order, and the activation is activation.go's one forward definition.
func applyEpilogueRows(dst []float32, m, lo, hi int, ep *epilogue) {
	if ep == nil {
		return
	}
	k := elemKernelsFor(currentGemmTier())
	for i := lo; i < hi; i++ {
		row := dst[i*m : (i+1)*m]
		if ep.colBias != nil {
			k.addVec(row, ep.colBias)
		}
		if ep.rowBias != nil {
			k.addConst(row, ep.rowBias[i])
		}
		if ep.act != ActNone {
			actForwardRange(ep.act, row, row, k)
		}
	}
}

// packedWorthIt reports whether the packed path pays for the given shape.
func packedWorthIt(n, k, m int) bool {
	return n >= microM && m >= microN && k >= 2 && n*k*m >= packedMinWork
}

// gemmSerial runs one GEMM entirely on the calling goroutine. accum
// selects dst += product (epilogues not allowed) versus dst = product;
// overwrite mode never reads dst, so it may be dirty.
func gemmSerial(dst, a, b []float32, n, k, m int, lay gemmLayout, accum bool, ep *epilogue) {
	tier := currentGemmTier()
	if tier == tierAVX2 && wideWorthIt(n, k, m) {
		gemmSerialWide(dst, a, b, n, k, m, lay, accum, ep)
		return
	}
	if !packedWorthIt(n, k, m) {
		gemmRefRange(dst, a, b, n, k, m, lay, accum, 0, n)
		applyEpilogueRows(dst, m, 0, n, ep)
		return
	}
	tree, seq := kernels4x4(tier)
	bp := getPackBuf(k * (m &^ 3))
	packBRange(bp, b, k, m, lay, 0, m&^3)
	gemmPackedRows(dst, a, b, bp, n, k, m, 0, n, lay, accum, ep, tree, seq)
	putPackBuf(bp)
}

// gemmParallel is gemmSerial with output rows split across the worker
// pool. The B panel is packed once (in parallel for large panels) and
// shared read-only by every worker; each worker packs its own A tiles
// into per-worker pooled scratch.
func gemmParallel(dst, a, b []float32, n, k, m int, lay gemmLayout, accum bool, ep *epilogue) {
	minRows := gemmMinRows(k, m)
	if rowWorkers(n, minRows) <= 1 {
		gemmSerial(dst, a, b, n, k, m, lay, accum, ep)
		return
	}
	tier := currentGemmTier()
	epc := ep.heapCopy()
	if tier == tierAVX2 && wideWorthIt(n, k, m) {
		gemmParallelWide(dst, a, b, n, k, m, lay, accum, epc)
		return
	}
	if !packedWorthIt(n, k, m) {
		parallelRows(n, minRows, func(lo, hi int) {
			gemmRefRange(dst, a, b, n, k, m, lay, accum, lo, hi)
			applyEpilogueRows(dst, m, lo, hi, epc)
		})
		return
	}
	tree, seq := kernels4x4(tier)
	m4 := m &^ 3
	bp := getPackBuf(k * m4)
	// Pack column strips in parallel when the panel is big enough; strips
	// write disjoint bp regions.
	packMin := 1 + minElemsPerWorker/(4*k+1)
	if rowWorkers(m4/4, packMin) <= 1 {
		packBRange(bp, b, k, m, lay, 0, m4)
	} else {
		parallelRows(m4/4, packMin, func(slo, shi int) {
			packBRange(bp, b, k, m, lay, slo*4, shi*4)
		})
	}
	parallelRowsAligned(n, microM, minRows, func(lo, hi int) {
		gemmPackedRows(dst, a, b, bp, n, k, m, lo, hi, lay, accum, epc, tree, seq)
	})
	putPackBuf(bp)
}

// gemmRefRange runs the reference kernel for output rows [lo, hi).
// Overwrite mode zeroes the region first where the reference kernel only
// accumulates; 0 + x reproduces x's bits (including NaNs), so this is
// identical to a true overwrite.
func gemmRefRange(dst, a, b []float32, n, k, m int, lay gemmLayout, accum bool, lo, hi int) {
	if lo >= hi {
		return
	}
	switch lay {
	case layPlain:
		if !accum {
			clear(dst[lo*m : hi*m])
		}
		gemmRefInto(dst[lo*m:hi*m], a[lo*k:hi*k], b, hi-lo, k, m)
	case layTransA:
		if !accum {
			clear(dst[lo*m : hi*m])
		}
		gemmRefTransASub(dst, a, b, n, k, m, lo, hi)
	case layTransB:
		if accum {
			gemmRefTransBAcc(dst[lo*m:hi*m], a[lo*k:hi*k], b, hi-lo, k, m)
		} else {
			gemmRefTransBInto(dst[lo*m:hi*m], a[lo*k:hi*k], b, hi-lo, k, m)
		}
	}
}

// gemmPackedRows computes output rows [lo, hi) against a pre-packed B
// panel bp. Full 4-row tiles go through the tree/seq micro-kernels (the
// tier-selected 4x4 pair — see kernels4x4); the row tail falls back to
// the reference kernels, and ragged columns [m&^3, m) use edge kernels
// that replicate the reference reduction orders.
func gemmPackedRows(dst, a, b, bp []float32, n, k, m, lo, hi int, lay gemmLayout, accum bool, ep *epilogue, tree, seq microFn) {
	m4 := m &^ 3
	i0 := lo
	if hi-lo >= microM {
		ap := getPackBuf(4 * microM * k)
		for ; i0+microM <= hi; i0 += microM {
			packATile(ap, a, n, k, i0, lay)
			if lay == layTransB {
				for j0 := 0; j0 < m4; j0 += microN {
					seq(dst[i0*m+j0:], m, ap, bp[j0*k:], k, accum)
				}
			} else {
				for j0 := 0; j0 < m4; j0 += microN {
					tree(dst[i0*m+j0:], m, ap, bp[j0*k:], k, accum)
				}
			}
			gemmEdgeCols(dst, a, b, n, k, m, i0, i0+microM, lay, accum, m4)
			applyEpilogueRows(dst, m, i0, i0+microM, ep)
		}
		putPackBuf(ap)
	}
	if i0 < hi {
		gemmRefRange(dst, a, b, n, k, m, lay, accum, i0, hi)
		applyEpilogueRows(dst, m, i0, hi, ep)
	}
}

// packATile packs the 4-row micro-tile starting at output row i0 into
// ap, replicating each element across 4 lanes (see the layout comment at
// the top of the file).
func packATile(ap, a []float32, n, k, i0 int, lay gemmLayout) {
	if lay == layTransA {
		// a is [k, n]; tile rows are the strided columns i0..i0+3.
		for p := 0; p < k; p++ {
			s := a[p*n+i0 : p*n+i0+4]
			q := ap[p*16 : p*16+16]
			v := s[0]
			q[0], q[1], q[2], q[3] = v, v, v, v
			v = s[1]
			q[4], q[5], q[6], q[7] = v, v, v, v
			v = s[2]
			q[8], q[9], q[10], q[11] = v, v, v, v
			v = s[3]
			q[12], q[13], q[14], q[15] = v, v, v, v
		}
		return
	}
	// Plain and transposed-B share the same [n, k] row-major a.
	r0 := a[i0*k : (i0+1)*k]
	r1 := a[(i0+1)*k : (i0+2)*k]
	r2 := a[(i0+2)*k : (i0+3)*k]
	r3 := a[(i0+3)*k : (i0+4)*k]
	for p := 0; p < k; p++ {
		q := ap[p*16 : p*16+16]
		v := r0[p]
		q[0], q[1], q[2], q[3] = v, v, v, v
		v = r1[p]
		q[4], q[5], q[6], q[7] = v, v, v, v
		v = r2[p]
		q[8], q[9], q[10], q[11] = v, v, v, v
		v = r3[p]
		q[12], q[13], q[14], q[15] = v, v, v, v
	}
}

// packBRange packs B column strips [jlo, jhi) (both multiples of 4) into
// bp. Plain/transposed-A read contiguous 4-element runs of b's rows;
// transposed-B gathers down four b rows at once.
func packBRange(bp, b []float32, k, m int, lay gemmLayout, jlo, jhi int) {
	if lay == layTransB {
		for j0 := jlo; j0 < jhi; j0 += 4 {
			s0 := b[j0*k : (j0+1)*k]
			s1 := b[(j0+1)*k : (j0+2)*k]
			s2 := b[(j0+2)*k : (j0+3)*k]
			s3 := b[(j0+3)*k : (j0+4)*k]
			q := bp[j0*k : (j0+4)*k]
			for p := 0; p < k; p++ {
				q[p*4] = s0[p]
				q[p*4+1] = s1[p]
				q[p*4+2] = s2[p]
				q[p*4+3] = s3[p]
			}
		}
		return
	}
	for j0 := jlo; j0 < jhi; j0 += 4 {
		q := bp[j0*k : (j0+4)*k]
		for p := 0; p < k; p++ {
			copy(q[p*4:p*4+4], b[p*m+j0:p*m+j0+4])
		}
	}
}

// gemmEdgeCols computes the ragged column remainder [mAligned, m) for
// output rows [i0, i1), replicating the reference kernels' per-element
// reduction order: 4-wide grouped expression trees for plain/transposed-A,
// the dotPair/dotOne split reductions for transposed-B. mAligned is the
// caller's strip alignment (m&^3 for the 4x4 path, m&^7 for the wide
// path); the per-column order is independent of it for plain/transposed-A,
// while transposed-B's pair/one grouping starts at mAligned — fixed per
// shape, so still split-invariant.
func gemmEdgeCols(dst, a, b []float32, n, k, m, i0, i1 int, lay gemmLayout, accum bool, mAligned int) {
	m4 := mAligned
	if m4 == m {
		return
	}
	switch lay {
	case layPlain:
		for i := i0; i < i1; i++ {
			arow := a[i*k : (i+1)*k]
			for j := m4; j < m; j++ {
				var c float32
				if accum {
					c = dst[i*m+j]
				}
				p := 0
				for ; p+4 <= k; p += 4 {
					c += arow[p]*b[p*m+j] + arow[p+1]*b[(p+1)*m+j] +
						arow[p+2]*b[(p+2)*m+j] + arow[p+3]*b[(p+3)*m+j]
				}
				for ; p < k; p++ {
					c += arow[p] * b[p*m+j]
				}
				dst[i*m+j] = c
			}
		}
	case layTransA:
		for i := i0; i < i1; i++ {
			for j := m4; j < m; j++ {
				var c float32
				if accum {
					c = dst[i*m+j]
				}
				p := 0
				for ; p+4 <= k; p += 4 {
					c += a[p*n+i]*b[p*m+j] + a[(p+1)*n+i]*b[(p+1)*m+j] +
						a[(p+2)*n+i]*b[(p+2)*m+j] + a[(p+3)*n+i]*b[(p+3)*m+j]
				}
				for ; p < k; p++ {
					c += a[p*n+i] * b[p*m+j]
				}
				dst[i*m+j] = c
			}
		}
	case layTransB:
		for i := i0; i < i1; i++ {
			arow := a[i*k : (i+1)*k]
			j := m4
			for j+2 <= m {
				r0, r1 := dotPair(arow, b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k])
				if accum {
					dst[i*m+j] += r0
					dst[i*m+j+1] += r1
				} else {
					dst[i*m+j] = r0
					dst[i*m+j+1] = r1
				}
				j += 2
			}
			if j < m {
				r := dotOne(arow, b[j*k:(j+1)*k])
				if accum {
					dst[i*m+j] += r
				} else {
					dst[i*m+j] = r
				}
			}
		}
	}
}
