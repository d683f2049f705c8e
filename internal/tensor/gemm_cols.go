package tensor

import "fmt"

// Column-range GEMM kernels for the split-weight execution path. The fused
// gate weight W is stored [G*H x (In+H)] with the input half Wx = W[:, :In]
// and the recurrent half Wh = W[:, In:]. These kernels operate on a column
// window of the weight operand in place, so the serialized layout and the
// public weight structs never change; only the traversal does.
//
// The batched variants take a whole sequence of operands and hoist the weight
// block to the outer loop: one cache-resident weight panel is reused across
// every timestep before the next panel is touched, which is where the
// split path's memory-traffic advantage over the fused path comes from.

// GemmTAccCols computes dst += a * bT[:, lo:lo+k)^T, where a is m x k and bT
// is n x kb with lo+k <= kb. It is GemmTAcc restricted to a column window of
// the transposed operand, so Wx/Wh products run against the fused weight
// matrix without copying it apart.
func GemmTAccCols(dst, a, bT *Matrix, lo int) {
	checkTCols(dst, a, bT, lo, "GemmTAccCols")
	guardWRR(dst, a, bT)
	m, k, n := a.Rows, a.Cols, bT.Rows
	countGemm(2 * int64(m) * int64(k) * int64(n))
	if useSIMD && m >= 4 {
		gemmTColsRowTiles([]*Matrix{dst}, []*Matrix{a}, bT, lo)
		return
	}
	for jj := 0; jj < n; jj += blockN {
		gemmTColsPanel(dst, a, bT, lo, jj, min(jj+blockN, n))
	}
}

// MatMulTCols computes dst = a * bT[:, lo:lo+k)^T.
func MatMulTCols(dst, a, bT *Matrix, lo int) {
	checkTCols(dst, a, bT, lo, "MatMulTCols")
	dst.Zero()
	GemmTAccCols(dst, a, bT, lo)
}

// GemmTAccColsBatch computes dst[s] += a[s] * bT[:, lo:lo+k)^T for every s.
// The weight column block is the outer loop: each panel of bT is loaded once
// and reused across the whole operand list, instead of being re-streamed per
// call. Accumulation order per element is identical to sequential
// GemmTAccCols calls, so the result is bitwise the same.
func GemmTAccColsBatch(dsts, as []*Matrix, bT *Matrix, lo int) {
	if len(dsts) != len(as) {
		panic(fmt.Sprintf("tensor: GemmTAccColsBatch got %d destinations for %d operands", len(dsts), len(as)))
	}
	if len(dsts) == 0 {
		return
	}
	var flops int64
	rows, sameK := 0, true
	for s := range dsts {
		checkTCols(dsts[s], as[s], bT, lo, "GemmTAccColsBatch")
		guardWRR(dsts[s], as[s], bT)
		flops += 2 * int64(as[s].Rows) * int64(as[s].Cols) * int64(bT.Rows)
		rows += as[s].Rows
		sameK = sameK && as[s].Cols == as[0].Cols
	}
	countGemm(flops)
	if useSIMD && rows >= 4 && sameK {
		gemmTColsRowTiles(dsts, as, bT, lo)
		return
	}
	n := bT.Rows
	for jj := 0; jj < n; jj += blockN {
		jMax := min(jj+blockN, n)
		for s := range dsts {
			gemmTColsPanel(dsts[s], as[s], bT, lo, jj, jMax)
		}
	}
}

func checkTCols[E Elt](dst, a, bT *Mat[E], lo int, name string) {
	if dst.Rows != a.Rows || dst.Cols != bT.Rows || lo < 0 || lo+a.Cols > bT.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch dst %dx%d += a %dx%d * (b^T %dx%d)[:, %d:%d)",
			name, dst.Rows, dst.Cols, a.Rows, a.Cols, bT.Rows, bT.Cols, lo, lo+a.Cols))
	}
}

// gemmTColsPanel accumulates dst[:, jj:jMax) += a * bT[jj:jMax, lo:lo+k)^T.
// The inner microkernel is register-blocked four output columns wide: each
// element of a is loaded once and feeds four independent multiply-adds, which
// keeps the load ports off the critical path of the h-chain GEMM that repeats
// T times per direction. Shared by the single and batched entry points so
// both accumulate in bitwise-identical order.
func gemmTColsPanel(dst, a, bT *Matrix, lo, jj, jMax int) {
	m, k, n := a.Rows, a.Cols, dst.Cols
	for ii := 0; ii < m; ii += blockM {
		iMax := min(ii+blockM, m)
		for i := ii; i < iMax; i++ {
			tColsRow(dst.Data[i*n:], a.Data[i*k:(i+1)*k], bT, lo, jj, jMax)
		}
	}
}

// tColsRow accumulates drow[j:jMax) += arow * bT[j:jMax, lo:lo+k)^T for one
// row: four columns at a time from j, then single dot columns.
func tColsRow(drow, arow []float64, bT *Matrix, lo, j, jMax int) {
	k, kb := len(arow), bT.Cols
	for ; j+4 <= jMax; j += 4 {
		// Re-slicing to len(arow) lets the compiler drop the
		// per-element bounds checks in the microkernel loop.
		b0 := bT.Data[j*kb+lo : j*kb+lo+k][:len(arow)]
		b1 := bT.Data[(j+1)*kb+lo : (j+1)*kb+lo+k][:len(arow)]
		b2 := bT.Data[(j+2)*kb+lo : (j+2)*kb+lo+k][:len(arow)]
		b3 := bT.Data[(j+3)*kb+lo : (j+3)*kb+lo+k][:len(arow)]
		var s0, s1, s2, s3 float64
		for p, av := range arow {
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		drow[j] += s0
		drow[j+1] += s1
		drow[j+2] += s2
		drow[j+3] += s3
	}
	for ; j < jMax; j++ {
		drow[j] += dot(arow, bT.Data[j*kb+lo:j*kb+lo+k])
	}
}

// GemmAccCols computes dst += a[:, aLo:aHi) * b[:, bLo:bLo+n), where the
// column window of a selects the gate panel and the column window of b
// selects Wx or Wh inside the fused weight matrix. b must have aHi-aLo rows.
// This is the backward-pass kernel for dX = dGates * Wx and dHPrev = dGates *
// Wh without materializing the concatenated dZ.
//
// The microkernel is register-blocked four weight rows deep: one pass over
// the destination row folds in four b rows, so each dst element is loaded and
// stored once per group instead of once per row. The four updates are applied
// as separate statements in row order, keeping per-element accumulation
// bitwise identical to the one-row-at-a-time axpy formulation.
func GemmAccCols(dst, a *Matrix, aLo, aHi int, b *Matrix, bLo int) {
	checkACols(dst, a, aLo, aHi, b, bLo, "GemmAccCols")
	guardWRR(dst, a, b)
	m, kw, n := a.Rows, aHi-aLo, dst.Cols
	countGemm(2 * int64(m) * int64(kw) * int64(n))
	for kk := 0; kk < kw; kk += blockK {
		gemmAColsBlock(dst, a, aLo, b, bLo, kk, min(kk+blockK, kw))
	}
}

// gemmAColsBlock accumulates weight rows [kk, kMax) of one windowed a*b
// product into dst. Shared by the single and batched entry points so both
// accumulate in bitwise-identical order.
func gemmAColsBlock(dst, a *Matrix, aLo int, b *Matrix, bLo, kk, kMax int) {
	m, n := a.Rows, dst.Cols
	for ii := 0; ii < m; ii += blockM {
		iMax := min(ii+blockM, m)
		for i := ii; i < iMax; i++ {
			arow := a.Data[i*a.Cols:]
			drow := dst.Data[i*n : (i+1)*n]
			p := kk
			if g := (kMax - kk) / 4; useSIMD && g > 0 && n > 0 {
				axpy4(&drow[0], n, &arow[aLo+kk], &b.Data[kk*b.Cols+bLo], uintptr(8*b.Cols), g)
				p += 4 * g
			}
			for ; p+4 <= kMax; p += 4 {
				a0, a1 := arow[aLo+p], arow[aLo+p+1]
				a2, a3 := arow[aLo+p+2], arow[aLo+p+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				// Re-sliced to len(drow) so the inner loop runs
				// without per-element bounds checks.
				b0 := b.Data[p*b.Cols+bLo : p*b.Cols+bLo+n][:len(drow)]
				b1 := b.Data[(p+1)*b.Cols+bLo : (p+1)*b.Cols+bLo+n][:len(drow)]
				b2 := b.Data[(p+2)*b.Cols+bLo : (p+2)*b.Cols+bLo+n][:len(drow)]
				b3 := b.Data[(p+3)*b.Cols+bLo : (p+3)*b.Cols+bLo+n][:len(drow)]
				for j, d := range drow {
					d += a0 * b0[j]
					d += a1 * b1[j]
					d += a2 * b2[j]
					d += a3 * b3[j]
					drow[j] = d
				}
			}
			for ; p < kMax; p++ {
				av := arow[aLo+p]
				if av == 0 {
					continue
				}
				axpy(av, b.Data[p*b.Cols+bLo:p*b.Cols+bLo+n], drow)
			}
		}
	}
}

// MatMulCols computes dst = a[:, aLo:aHi) * b[:, bLo:bLo+n).
func MatMulCols(dst, a *Matrix, aLo, aHi int, b *Matrix, bLo int) {
	checkACols(dst, a, aLo, aHi, b, bLo, "MatMulCols")
	dst.Zero()
	GemmAccCols(dst, a, aLo, aHi, b, bLo)
}

// GemmAccColsBatch computes dst[s] += a[s][:, aLo:aHi) * b[:, bLo:bLo+n) for
// every s. The weight row block is the outer loop: each panel of b is loaded
// once and reused across the whole operand list — the batched dX = dGates*Wx
// accumulation that moves the input gradient off the backward recurrence.
// Per-element accumulation order (weight rows ascending) is identical to
// sequential GemmAccCols calls, so the result is bitwise the same.
func GemmAccColsBatch(dsts, as []*Matrix, aLo, aHi int, b *Matrix, bLo int) {
	if len(dsts) != len(as) {
		panic(fmt.Sprintf("tensor: GemmAccColsBatch got %d destinations for %d operands", len(dsts), len(as)))
	}
	if len(dsts) == 0 {
		return
	}
	var flops int64
	for s := range dsts {
		checkACols(dsts[s], as[s], aLo, aHi, b, bLo, "GemmAccColsBatch")
		guardWRR(dsts[s], as[s], b)
		flops += 2 * int64(as[s].Rows) * int64(aHi-aLo) * int64(dsts[s].Cols)
	}
	countGemm(flops)
	kw := aHi - aLo
	for kk := 0; kk < kw; kk += blockK {
		kMax := min(kk+blockK, kw)
		for s := range dsts {
			gemmAColsBlock(dsts[s], as[s], aLo, b, bLo, kk, kMax)
		}
	}
}

func checkACols[E Elt](dst, a *Mat[E], aLo, aHi int, b *Mat[E], bLo int, name string) {
	if aLo < 0 || aHi > a.Cols || aHi < aLo || b.Rows != aHi-aLo ||
		dst.Rows != a.Rows || bLo < 0 || bLo+dst.Cols > b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch dst %dx%d += (a %dx%d)[:, %d:%d) * (b %dx%d)[:, %d:%d)",
			name, dst.Rows, dst.Cols, a.Rows, a.Cols, aLo, aHi, b.Rows, b.Cols, bLo, bLo+dst.Cols))
	}
}

// GemmATAccCols computes dst[:, dstLo:dstLo+n) += a[:, aLo:aHi)^T * b: the
// gate-gradient panel a[:, aLo:aHi) times input b lands in a column window of
// the fused weight gradient. dst must have aHi-aLo rows.
func GemmATAccCols(dst *Matrix, dstLo int, a *Matrix, aLo, aHi int, b *Matrix) {
	checkATCols(dst, dstLo, a, aLo, aHi, b, "GemmATAccCols")
	guardWRR(dst, a, b)
	k, m, n := a.Rows, aHi-aLo, b.Cols
	countGemm(2 * int64(m) * int64(k) * int64(n))
	gemmATColsBlock(dst, dstLo, a, aLo, b, 0, m)
}

// GemmATAccColsBatch computes dst[:, dstLo:dstLo+n) += a[s][:, aLo:aHi)^T *
// b[s] summed over every s. The destination row block is the outer loop, so
// the weight-gradient panel stays cache-resident while the whole sequence of
// gate gradients streams through once — the batched dWx accumulation that
// moves the input-weight gradient off the backward recurrence. Per-element
// accumulation order is (s ascending, then row ascending), identical to
// sequential GemmATAccCols calls, so the result is bitwise the same.
func GemmATAccColsBatch(dst *Matrix, dstLo int, as []*Matrix, aLo, aHi int, bs []*Matrix) {
	if len(as) != len(bs) {
		panic(fmt.Sprintf("tensor: GemmATAccColsBatch got %d gradient panels for %d inputs", len(as), len(bs)))
	}
	if len(as) == 0 {
		return
	}
	var flops int64
	for s := range as {
		checkATCols(dst, dstLo, as[s], aLo, aHi, bs[s], "GemmATAccColsBatch")
		guardWRR(dst, as[s], bs[s])
		flops += 2 * int64(aHi-aLo) * int64(as[s].Rows) * int64(bs[s].Cols)
	}
	countGemm(flops)
	m := aHi - aLo
	for ii := 0; ii < m; ii += blockM {
		iMax := min(ii+blockM, m)
		for s := range as {
			gemmATColsBlock(dst, dstLo, as[s], aLo, bs[s], ii, iMax)
		}
	}
}

func checkATCols[E Elt](dst *Mat[E], dstLo int, a *Mat[E], aLo, aHi int, b *Mat[E], name string) {
	if a.Rows != b.Rows || aLo < 0 || aHi > a.Cols || aHi < aLo ||
		dst.Rows != aHi-aLo || dstLo < 0 || dstLo+b.Cols > dst.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch (dst %dx%d)[:, %d:%d) += ((a %dx%d)[:, %d:%d))^T * b %dx%d",
			name, dst.Rows, dst.Cols, dstLo, dstLo+b.Cols, a.Rows, a.Cols, aLo, aHi, b.Rows, b.Cols))
	}
}

// gemmATColsBlock accumulates rows [ii, iMax) of one a^T*b product into the
// destination column window, streaming a and b row-major with the same
// zero-skip as GemmATAcc. The microkernel is register-blocked four
// destination rows deep: each element of the b row is loaded once and feeds
// four independent multiply-adds. Grouping destination rows does not touch
// any row's own accumulation sequence (still one update per b row, in
// ascending p), so results stay bitwise identical to the axpy formulation.
func gemmATColsBlock(dst *Matrix, dstLo int, a *Matrix, aLo int, b *Matrix, ii, iMax int) {
	k, n := a.Rows, b.Cols
	for p := 0; p < k; p++ {
		arow := a.Data[p*a.Cols:]
		brow := b.Data[p*n : (p+1)*n]
		i := ii
		for ; i+4 <= iMax; i += 4 {
			a0, a1 := arow[aLo+i], arow[aLo+i+1]
			a2, a3 := arow[aLo+i+2], arow[aLo+i+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			// Re-sliced to len(brow) so the inner loop runs without
			// per-element bounds checks.
			d0 := dst.Data[i*dst.Cols+dstLo : i*dst.Cols+dstLo+n][:len(brow)]
			d1 := dst.Data[(i+1)*dst.Cols+dstLo : (i+1)*dst.Cols+dstLo+n][:len(brow)]
			d2 := dst.Data[(i+2)*dst.Cols+dstLo : (i+2)*dst.Cols+dstLo+n][:len(brow)]
			d3 := dst.Data[(i+3)*dst.Cols+dstLo : (i+3)*dst.Cols+dstLo+n][:len(brow)]
			for j, bv := range brow {
				d0[j] += a0 * bv
				d1[j] += a1 * bv
				d2[j] += a2 * bv
				d3[j] += a3 * bv
			}
		}
		for ; i < iMax; i++ {
			av := arow[aLo+i]
			if av == 0 {
				continue
			}
			axpy(av, brow, dst.Data[i*dst.Cols+dstLo:i*dst.Cols+dstLo+n])
		}
	}
}

// GemmTAccDstCols computes dst[:, dstLo:dstLo+n) += a * bT^T, where n =
// bT.Rows: the full product of a [m x k] and bT [n x k] lands in a column
// window of dst. With a = the gate-gradient panels stacked [gw x T*batch]
// and bT = the matching inputs (or previous hidden states) stacked
// [in x T*batch], this is the whole sequence's dWx (or dWh) accumulation as
// one dot-form GEMM: the inner product runs over timesteps, so each weight
// gradient element is read and written once per sequence instead of once per
// timestep, and the microkernel accumulates in registers like the forward
// panel kernel.
func GemmTAccDstCols(dst *Matrix, dstLo int, a, bT *Matrix) {
	m, k, n := a.Rows, a.Cols, bT.Rows
	if dst.Rows != m || bT.Cols != k || dstLo < 0 || dstLo+n > dst.Cols {
		panic(fmt.Sprintf("tensor: GemmTAccDstCols shape mismatch (dst %dx%d)[:, %d:%d) += a %dx%d * (b^T %dx%d)",
			dst.Rows, dst.Cols, dstLo, dstLo+n, m, k, bT.Rows, bT.Cols))
	}
	guardWRR(dst, a, bT)
	countGemm(2 * int64(m) * int64(k) * int64(n))
	for jj := 0; jj < n; jj += blockN {
		jMax := min(jj+blockN, n)
		for ii := 0; ii < m; ii += blockM {
			iMax := min(ii+blockM, m)
			for i := ii; i < iMax; i++ {
				arow := a.Data[i*k : (i+1)*k]
				drow := dst.Data[i*dst.Cols+dstLo:]
				j := jj
				for ; j+4 <= jMax; j += 4 {
					b0 := bT.Data[j*k : (j+1)*k][:len(arow)]
					b1 := bT.Data[(j+1)*k : (j+2)*k][:len(arow)]
					b2 := bT.Data[(j+2)*k : (j+3)*k][:len(arow)]
					b3 := bT.Data[(j+3)*k : (j+4)*k][:len(arow)]
					var s0, s1, s2, s3 float64
					for p, av := range arow {
						s0 += av * b0[p]
						s1 += av * b1[p]
						s2 += av * b2[p]
						s3 += av * b3[p]
					}
					drow[j] += s0
					drow[j+1] += s1
					drow[j+2] += s2
					drow[j+3] += s3
				}
				for ; j < jMax; j++ {
					drow[j] += dot(arow, bT.Data[j*k:(j+1)*k])
				}
			}
		}
	}
}

// GemmATAccDstCols computes dst[:, dstLo:dstLo+n) += a[:, aLo:aHi)^T * b,
// where a is k x ma, b is k x n and dst has aHi-aLo rows. With a = the
// gate-gradient panels and b = the matching inputs (or previous hidden
// states), each stacked by row [T*batch x width] (StackRowsInto, a plain
// copy), this is the whole sequence's dWx (or dWh) accumulation.
//
// It is the dot form of GemmATAccCols: each element is accumulated in a
// register over k and then added once, in the order of GemmTAccDstCols over
// the transposed operands — four columns at a time, the last n%4 columns
// through dot's four-way split, no zero-skip. The result is therefore
// bitwise-equal to GemmTAccDstCols(dst, dstLo, a[:, aLo:aHi)^T, b^T), not
// to GemmATAccCols.
func GemmATAccDstCols(dst *Matrix, dstLo int, a *Matrix, aLo, aHi int, b *Matrix) {
	m, k, n := aHi-aLo, a.Rows, b.Cols
	if aLo < 0 || aHi > a.Cols || m < 0 || b.Rows != k || dst.Rows != m || dstLo < 0 || dstLo+n > dst.Cols {
		panic(fmt.Sprintf("tensor: GemmATAccDstCols shape mismatch (dst %dx%d)[:, %d:%d) += ((a %dx%d)[:, %d:%d))^T * b %dx%d",
			dst.Rows, dst.Cols, dstLo, dstLo+n, a.Rows, a.Cols, aLo, aHi, b.Rows, b.Cols))
	}
	guardWRR(dst, a, b)
	countGemm(2 * int64(m) * int64(k) * int64(n))
	j0 := 0
	if useSIMD && k > 0 {
		j0 = n &^ 15
		atDstColsTiles(dst, dstLo, a, aLo, aHi, b)
	}
	for i := 0; i < m; i++ {
		drow := dst.Data[i*dst.Cols+dstLo : i*dst.Cols+dstLo+n]
		j := j0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			for p := 0; p < k; p++ {
				av := a.Data[p*a.Cols+aLo+i]
				bq := b.Data[p*n+j : p*n+j+4]
				s0 += av * bq[0]
				s1 += av * bq[1]
				s2 += av * bq[2]
				s3 += av * bq[3]
			}
			drow[j] += s0
			drow[j+1] += s1
			drow[j+2] += s2
			drow[j+3] += s3
		}
		for ; j < n; j++ {
			drow[j] += dotStrided(a.Data, aLo+i, a.Cols, b.Data, j, n, k)
		}
	}
}

// dotStrided is dot over the k-element strided vectors a[ao], a[ao+as], ...
// and b[bo], b[bo+bs], ...: the same four-way split and final
// s0+s1+s2+s3, so it is bitwise-equal to dot of the two gathered vectors.
func dotStrided(a []float64, ao, as int, b []float64, bo, bs, k int) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= k; i += 4 {
		s0 += a[ao+i*as] * b[bo+i*bs]
		s1 += a[ao+(i+1)*as] * b[bo+(i+1)*bs]
		s2 += a[ao+(i+2)*as] * b[bo+(i+2)*bs]
		s3 += a[ao+(i+3)*as] * b[bo+(i+3)*bs]
	}
	for ; i < k; i++ {
		s0 += a[ao+i*as] * b[bo+i*bs]
	}
	return s0 + s1 + s2 + s3
}

// StackRowsInto fills dst [len(srcs)*rows x cols] with the row-wise
// concatenation of srcs: dst row s*rows+r is srcs[s] row r. It builds the
// operands of GemmATAccDstCols from a sequence of per-timestep panels. All srcs
// must share dst.Cols columns and the same row count.
func StackRowsInto[E Elt](dst *Mat[E], srcs []*Mat[E]) {
	if len(srcs) == 0 {
		return
	}
	rows := srcs[0].Rows
	if dst.Rows != len(srcs)*rows {
		panic(fmt.Sprintf("tensor: StackRowsInto dst %dx%d cannot hold %d stacks of %d rows",
			dst.Rows, dst.Cols, len(srcs), rows))
	}
	guardW(dst)
	size := rows * dst.Cols
	for s, src := range srcs {
		if src.Cols != dst.Cols || src.Rows != rows {
			panic(fmt.Sprintf("tensor: StackRowsInto operand %d is %dx%d, want %dx%d",
				s, src.Rows, src.Cols, rows, dst.Cols))
		}
		guardR(src)
		copy(dst.Data[s*size:(s+1)*size], src.Data[:size])
	}
}

// TransposeStackInto fills dst [d x len(srcs)*rows] with the transposed
// concatenation of srcs: dst[i][s*rows+r] = srcs[s][r][i]. It builds the
// stacked operands of GemmTAccDstCols from a sequence of per-timestep
// panels. All srcs must share dst.Rows columns and the same row count.
func TransposeStackInto[E Elt](dst *Mat[E], srcs []*Mat[E]) {
	if len(srcs) == 0 {
		return
	}
	rows := srcs[0].Rows
	if dst.Cols != len(srcs)*rows {
		panic(fmt.Sprintf("tensor: TransposeStackInto dst %dx%d cannot hold %d stacks of %d rows",
			dst.Rows, dst.Cols, len(srcs), rows))
	}
	guardW(dst)
	for s, src := range srcs {
		if src.Cols != dst.Rows || src.Rows != rows {
			panic(fmt.Sprintf("tensor: TransposeStackInto operand %d is %dx%d, want %dx%d",
				s, src.Rows, src.Cols, rows, dst.Rows))
		}
		guardR(src)
		for r := 0; r < rows; r++ {
			srow := src.Data[r*src.Cols : (r+1)*src.Cols]
			col := s*rows + r
			for i, v := range srow {
				dst.Data[i*dst.Cols+col] = v
			}
		}
	}
}

// CopyColsInto copies src[:, lo:lo+dst.Cols) into dst. It is the guarded
// column-window counterpart of CopyFrom, used to seed chain-task gate buffers
// from the precomputed preload panels.
func CopyColsInto[E Elt](dst, src *Mat[E], lo int) {
	if dst.Rows != src.Rows || lo < 0 || lo+dst.Cols > src.Cols {
		panic(fmt.Sprintf("tensor: CopyColsInto shape mismatch dst %dx%d = (src %dx%d)[:, %d:%d)",
			dst.Rows, dst.Cols, src.Rows, src.Cols, lo, lo+dst.Cols))
	}
	guardWR(dst, src)
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Data[i*dst.Cols:(i+1)*dst.Cols], src.Data[i*src.Cols+lo:i*src.Cols+lo+dst.Cols])
	}
}
