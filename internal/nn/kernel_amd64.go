//go:build amd64 && !purego

package nn

// The AVX2 body of the primitive family (kernel_amd64.s). Each routine takes
// its operands as slices and indexes all of them up to the first one's
// length; the wrappers in kernel.go have checked the lengths and never call
// with an empty first operand.

//go:noescape
func axpyAVX2(dst, x []float64, a float64)

//go:noescape
func axpy4AVX2(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func dotAxpyAVX2(d, w, wd []float64, a float64) float64

//go:noescape
func dotAxpy2AVX2(d0, d1, w, wd []float64, a0, a1 float64) (s0, s1 float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

var avx2Kernels = kernelSet{axpy: axpyAVX2, axpy4: axpy4AVX2, dotAxpy: dotAxpyAVX2, dotAxpy2: dotAxpy2AVX2}

func init() {
	if hasAVX2() {
		kernels = avx2Kernels
	}
}

// hasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM state across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	const xmmYmmState = 0b110 // XCR0 bits 1 and 2
	if lo, _ := xgetbv(); lo&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
