//go:build amd64 && !purego && !race

package tensor

// useSIMD routes the float64 split-path GEMMs through the AVX2 kernels of
// simd_amd64.s. It is decided once, at package init: the CPU must report
// AVX2 and the OS must save the YMM state across context switches.
//
// The kernels never fuse a multiply with its add (VMULPD then VADDPD, no
// FMA) and keep the scalar summation order per output element, so their
// results are bitwise-equal to the scalar Go kernels built at the default
// GOAMD64 level (v1/v2). At GOAMD64=v3 the compiler may fuse the scalar
// a*b+c into one FMA, and then the two paths no longer agree.
//
// Builds with -race or -tags purego, and other architectures, compile
// simd_generic.go instead and keep the scalar kernels: the race detector
// cannot see loads and stores made from assembly.
var useSIMD = hasAVX2()

// hasAVX2 reports whether the CPU supports AVX2 and the OS has enabled the
// XMM and YMM register state (CPUID.1:ECX.OSXSAVE/AVX, XCR0 bits 1-2,
// CPUID.7.0:EBX.AVX2).
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// dotTile computes d[0:w] += s[0:w], where s[l] is the sum over p =
// 0..k-1, in ascending order and starting from +0, of x[p*xs/8] *
// y[p*ys/8+l] (xs and ys are strides in bytes; w is 4, 8 or 16). Each lane
// runs the scalar dot-form statements s += a*b, one rounded multiply then
// one rounded add, and then d += s.
//
//go:noescape
func dotTile(d, x *float64, xs uintptr, y *float64, ys uintptr, k, w int)

// axpy4 applies groups 4-row axpy blocks to d[0:n]: for each group g with
// coefficients a[4g:4g+4] not all zero, and rows r = b + (4g+q)*bs for
// q = 0..3 (bs a byte stride),
//
//	d[j] += a[4g]*r0[j]; d[j] += a[4g+1]*r1[j]; d[j] += a[4g+2]*r2[j]; d[j] += a[4g+3]*r3[j]
//
// in that order for every j, exactly as the scalar gemmAColsBlock does; an
// all-zero group (each coefficient == 0, so NaN never skips) is skipped.
// n must be positive.
//
//go:noescape
func axpy4(d *float64, n int, a, b *float64, bs uintptr, groups int)
