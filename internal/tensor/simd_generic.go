//go:build !amd64 || purego || race

package tensor

// useSIMD is false where the AVX2 kernels are not built: on other
// architectures, under -tags purego, and under -race, whose detector cannot
// see loads and stores made from assembly. Every kernel then runs its
// scalar Go form.
const useSIMD = false

func dotTile(d, x *float64, xs uintptr, y *float64, ys uintptr, k, w int) {
	panic("tensor: dotTile without SIMD support")
}

func axpy4(d *float64, n int, a, b *float64, bs uintptr, groups int) {
	panic("tensor: axpy4 without SIMD support")
}
