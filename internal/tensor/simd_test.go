package tensor

import (
	"fmt"
	"math"
	"testing"

	"bpar/internal/rng"
)

// specialValues are the IEEE edge cases the fuzz target plants into
// operands: signed zeros, NaN, infinities, subnormals, and magnitudes whose
// products overflow.
var specialValues = [...]float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308, 1,
}

// sameBits reports whether a and b hold identical bit patterns, treating any
// two NaNs as equal: Go does not specify which operand's payload a NaN
// result carries, and the compiler may commute a multiply's operands.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// FuzzSIMDKernels checks every vectorized float64 split-path kernel
// bitwise against its scalar original — the generic mirrors in gemm_g.go,
// which TestF64GenericMirrorsBitwise already pins to the pre-SIMD kernels
// and which never take the SIMD path:
//
//   - GemmTAccColsPacked / GemmTAccColsPackedBatch (the recurrent chain over
//     interleaved groups) against gemmTAccColsG on the unpacked window;
//   - GemmTAccCols / GemmTAccColsBatch (the projection row tiles) against
//     gemmTAccColsG / gemmTAccColsBatchG;
//   - GemmAccCols / GemmAccColsBatch (dHPrev and dX, axpy4) against
//     gemmAccColsG / gemmAccColsBatchG, with all-zero 4-row groups;
//   - GemmATAccDstCols (dW) against gemmTAccDstColsG on the transposed
//     operands.
//
// Shapes span rows 1..17, k 0..70 and n 1..80 with column windows at
// lo > 0. special is read in 4-byte records (operand, position hi/lo, value
// index) that plant specialValues; bit g%8 of zeroGroups zeroes 4-row group
// g of every axpy coefficient row.
//
// Without AVX2, or under -race or -tags purego, both sides run scalar code
// and the target still checks the wrappers. The bitwise contract assumes
// the default GOAMD64 level (v1 or v2): at v3 the compiler may fuse the
// scalar a*b+c into an FMA, which the SIMD kernels never do.
func FuzzSIMDKernels(f *testing.F) {
	f.Add(uint8(5), uint8(33), uint8(37), uint8(3), uint8(2), uint8(0x05), uint64(1), []byte{})
	f.Add(uint8(16), uint8(70), uint8(79), uint8(7), uint8(1), uint8(0xff), uint64(2), []byte{0, 0, 3, 2, 1, 0, 9, 3})
	f.Add(uint8(0), uint8(0), uint8(15), uint8(0), uint8(0), uint8(0), uint64(3), []byte{})
	f.Fuzz(func(t *testing.T, mB, kB, nB, loB, sB, zeroGroups uint8, seed uint64, special []byte) {
		checkSIMDKernels(t, 1+int(mB)%17, int(kB)%71, 1+int(nB)%80, int(loB)%9, 1+int(sB)%3, zeroGroups, seed, special)
	})
}

// checkSIMDKernels is the body of FuzzSIMDKernels for one decoded input.
func checkSIMDKernels(t *testing.T, m, k, n, lo, S int, zeroGroups uint8, seed uint64, special []byte) {
	t.Helper()
	r := rng.New(seed)
	fill := func(rows, cols int) *Matrix {
		x := New(rows, cols)
		r.FillUniform(x.Data, -2, 2)
		return x
	}
	var ops [][]float64
	reg := func(xs ...*Matrix) {
		for _, x := range xs {
			ops = append(ops, x.Data)
		}
	}

	// Dot-form operands: S activation panels a[s] (m x k) against the
	// window [lo, lo+k) of bT (n x lo+k+2).
	bT := fill(n, lo+k+2)
	as := make([]*Matrix, S)
	for s := range as {
		as[s] = fill(m, k)
	}
	reg(bT)
	reg(as...)
	// Axpy-form operands: coefficient panels g[s] (m x lo+k+1, window
	// [lo, lo+k)) times rows of w (k x lo+n+3, window [lo+1, lo+1+n)).
	w := fill(k, lo+n+3)
	gs := make([]*Matrix, S)
	for s := range gs {
		gs[s] = fill(m, lo+k+1)
	}
	reg(w)
	reg(gs...)
	// dW operands: the window [lo, lo+m) of a (k x lo+m+2), transposed,
	// times b (k x n), into a window of dst.
	da, db := fill(k, lo+m+2), fill(k, n)
	reg(da, db)

	for i := 0; i+4 <= len(special); i += 4 {
		op := ops[int(special[i])%len(ops)]
		if len(op) == 0 {
			continue
		}
		pos := (int(special[i+1])<<8 | int(special[i+2])) % len(op)
		op[pos] = specialValues[int(special[i+3])%len(specialValues)]
	}
	for _, g := range gs {
		for i := 0; i < m; i++ {
			for q := 0; q+4 <= k; q += 4 {
				if zeroGroups&(1<<((q/4)%8)) != 0 {
					for c := 0; c < 4; c++ {
						g.Set(i, lo+q+c, 0)
					}
				}
			}
		}
	}

	check := func(name string, got, want []*Matrix) {
		t.Helper()
		for s := range got {
			if !sameBits(got[s].Data, want[s].Data) {
				t.Fatalf("%s (m=%d k=%d n=%d lo=%d S=%d) operand %d: SIMD result differs from scalar original",
					name, m, k, n, lo, S, s)
			}
		}
	}
	dsts := func(rows, cols int) (got, want []*Matrix) {
		for s := 0; s < S; s++ {
			d := fill(rows, cols)
			got, want = append(got, d), append(want, d.Clone())
		}
		return got, want
	}

	got, want := dsts(m, n)
	GemmTAccCols(got[0], as[0], bT, lo)
	gemmTAccColsG(want[0], as[0], bT, lo)
	check("GemmTAccCols", got[:1], want[:1])

	got, want = dsts(m, n)
	GemmTAccColsBatch(got, as, bT, lo)
	gemmTAccColsBatchG(want, as, bT, lo)
	check("GemmTAccColsBatch", got, want)

	pp := NewPackedPanel(bT, lo, k)
	got, want = dsts(m, n)
	GemmTAccColsPacked(got[0], as[0], pp)
	gemmTAccColsG(want[0], as[0], bT, lo)
	check("GemmTAccColsPacked", got[:1], want[:1])

	got, want = dsts(m, n)
	GemmTAccColsPackedBatch(got, as, pp)
	gemmTAccColsBatchG(want, as, bT, lo)
	check("GemmTAccColsPackedBatch", got, want)

	got, want = dsts(m, n)
	GemmAccCols(got[0], gs[0], lo, lo+k, w, lo+1)
	gemmAccColsG(want[0], gs[0], lo, lo+k, w, lo+1)
	check("GemmAccCols", got[:1], want[:1])

	got, want = dsts(m, n)
	GemmAccColsBatch(got, gs, lo, lo+k, w, lo+1)
	gemmAccColsBatchG(want, gs, lo, lo+k, w, lo+1)
	check("GemmAccColsBatch", got, want)

	got, want = dsts(m, lo+n+1)
	GemmATAccDstCols(got[0], lo, da, lo, lo+m, db)
	gemmTAccDstColsG(want[0], lo, subCols(da, lo, lo+m).Transpose(), db.Transpose())
	check("GemmATAccDstCols", got[:1], want[:1])
}

// TestSIMDKernelShapes runs the fuzz body's comparisons over a fixed grid
// of tile-boundary shapes, so a plain `go test` covers every tile width and
// tail combination without the fuzzing engine.
func TestSIMDKernelShapes(t *testing.T) {
	for _, m := range []int{1, 3, 4, 8, 12, 16, 17} {
		for _, k := range []int{0, 1, 5, 16, 33} {
			for _, n := range []int{1, 4, 15, 16, 19, 32, 37, 64, 80} {
				t.Run(fmt.Sprintf("m%d-k%d-n%d", m, k, n), func(t *testing.T) {
					// Plant one special value per operand kind and zero
					// every other 4-row coefficient group.
					special := []byte{0, 0, 1, 2, 1, 0, 2, 5, 3, 0, 0, 1, 5, 0, 3, 3}
					checkSIMDKernels(t, m, k, n, 3, 2, 0x55, uint64(m*1000+k*100+n), special)
				})
			}
		}
	}
}
