package tensor

import "sync"

// Vectorized forms of the float64 split-path GEMMs. Each one maps its
// product onto dotTile or axpy4 (simd_amd64.s) so that every output element
// still sees the scalar kernel's exact sequence of rounded multiplies and
// adds; only which elements run side by side changes. Columns or rows past
// the last full tile, and every dot() remainder column, run the scalar code
// unchanged. They are called only when useSIMD holds.

// xtPool recycles the transposed activation tiles of gemmTColsRowTiles, so
// a steady-state projection allocates nothing.
var xtPool = sync.Pool{New: func() any { return new([]float64) }}

// gemmTColsRowTiles is the vectorized GemmTAccColsBatch: dsts[s] +=
// as[s] * bT[:, lo:lo+k)^T, with every as[s] k wide. The rows of all
// operands are stacked and cut into tiles of 16, 8 and 4 rows. For each
// tile the activations are transposed once into a small [k x w] buffer, and
// each quad column j of the output is one dotTile call that broadcasts the
// contiguous weight row bT[j, lo:lo+k) and runs the w rows in the lanes —
// the weights are read in place and never copied. Rows left over after the
// last 4-row tile run the scalar row kernel.
func gemmTColsRowTiles(dsts, as []*Matrix, bT *Matrix, lo int) {
	k, n := as[0].Cols, bT.Rows
	bp := xtPool.Get().(*[]float64)
	if cap(*bp) < 16*k {
		*bp = make([]float64, 16*k)
	}
	xt := (*bp)[:16*k]
	var ra, rd [16][]float64
	w := 0
	for s, a := range as {
		d := dsts[s]
		for i := 0; i < a.Rows; i++ {
			ra[w], rd[w] = a.Data[i*k:(i+1)*k], d.Data[i*n:(i+1)*n]
			if w++; w == 16 {
				tColsTile(ra[:], rd[:], bT, lo, xt)
				w = 0
			}
		}
	}
	r := 0
	for _, tw := range [...]int{8, 4} {
		if w-r >= tw {
			tColsTile(ra[r:r+tw], rd[r:r+tw], bT, lo, xt)
			r += tw
		}
	}
	for ; r < w; r++ {
		tColsRow(rd[r], ra[r], bT, lo, 0, n)
	}
	xtPool.Put(bp)
}

// tColsTile runs one row tile of gemmTColsRowTiles: len(ra) is 4, 8 or 16.
func tColsTile(ra, rd [][]float64, bT *Matrix, lo int, xt []float64) {
	w, k, kb, n := len(ra), len(ra[0]), bT.Cols, len(rd[0])
	n4 := n &^ 3
	for l, row := range ra {
		for p, v := range row {
			xt[p*w+l] = v
		}
	}
	// The lane sums land in a zeroed buffer first: the sums start at +0 and
	// so are never -0, which makes +0 + s == s and the scatter below the
	// scalar drow[j] += s.
	var acc [16]float64
	for j := 0; j < n4; j++ {
		acc = [16]float64{}
		if k > 0 {
			dotTile(&acc[0], &bT.Data[j*kb+lo], 8, &xt[0], uintptr(8*w), k, w)
		}
		for l, d := range rd {
			d[j] += acc[l]
		}
	}
	for l, row := range ra {
		tColsRow(rd[l], row, bT, lo, n4, n)
	}
}

// gemmTColsGroups computes the interleaved columns [0, 16*pp.groups) of
// GemmTAccColsPacked: for each 16-column group and each row of a, one
// dotTile call broadcasts the row's elements, streams the group's [k x 16]
// block and adds the 16 sums into dst like the scalar quads do.
func gemmTColsGroups(dst, a *Matrix, pp *PackedPanel[float64]) {
	k, n := a.Cols, dst.Cols
	for g := 0; g < pp.groups; g++ {
		y := &pp.buf[g*16*k]
		for i := 0; i < a.Rows; i++ {
			d := dst.Data[i*n+16*g : i*n+16*g+16]
			dotTile(&d[0], &a.Data[i*k], 8, y, 16*8, k, 16)
		}
	}
}

// atDstColsTiles computes the 16-column tiles [0, n&^15) of
// GemmATAccDstCols: for each tile and each destination row i, one dotTile
// call broadcasts column aLo+i of a, striding down its rows, and streams
// the tile's columns of b row by row.
func atDstColsTiles(dst *Matrix, dstLo int, a *Matrix, aLo, aHi int, b *Matrix) {
	k, n := a.Rows, b.Cols
	for j := 0; j+16 <= n; j += 16 {
		for i := 0; i < aHi-aLo; i++ {
			d := dst.Data[i*dst.Cols+dstLo+j : i*dst.Cols+dstLo+j+16]
			dotTile(&d[0], &a.Data[aLo+i], uintptr(8*a.Cols), &b.Data[j], uintptr(8*n), k, 16)
		}
	}
}
