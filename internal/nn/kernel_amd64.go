//go:build amd64 && !purego

package nn

// The assembly body of the primitive family (kernel_amd64.s). Each routine
// indexes its operands within the shape the wrappers in kernel.go have
// checked, and is never called with nothing to do.

//go:noescape
func matvecAVX2(dst, x, w []float64)

//go:noescape
func matvecAVX512(dst, x, w []float64)

//go:noescape
func matvecRowsAVX512(dst, x, w []float64, rows, in, n int)

//go:noescape
func gradXAVX2(ad0, ad1, d0, d1, w []float64)

//go:noescape
func gradXAVX512(ad0, ad1, d0, d1, w []float64)

//go:noescape
func gradXRowAVX512(xd, d, w []float64)

//go:noescape
func gradWAVX2(wd, a, d []float64, rows, in, n int)

//go:noescape
func gradWAVX512(wd, a, d []float64, rows, in, n int)

// The elementwise routines take whole groups of four only; sigmoidAVX2 and
// expShiftAVX2 also stop at a group holding a lane their exp does not take,
// and return where they stopped.

//go:noescape
func sigmoidAVX2(dst, x []float64) int

//go:noescape
func tanhAVX2(dst, x []float64)

//go:noescape
func expShiftAVX2(dst, x []float64, m float64) int

//go:noescape
func adamAVX2(w, dw, m, v []float64, c adamCoef)

//go:noescape
func sumSquaresAVX2(x []float64) float64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The Go drivers of the elementwise routines: the reference body takes the
// group a routine stopped at, and the len mod 4 tail.

func sigmoidAsm(dst, x []float64) {
	for len(dst) > 0 {
		i := sigmoidAVX2(dst, x)
		e := min(i+4, len(dst))
		sigmoidGo(dst[i:e], x[i:e])
		dst, x = dst[e:], x[e:]
	}
}

func expShiftAsm(dst, x []float64, m float64) {
	for len(dst) > 0 {
		i := expShiftAVX2(dst, x, m)
		e := min(i+4, len(dst))
		expShiftGo(dst[i:e], x[i:e], m)
		dst, x = dst[e:], x[e:]
	}
}

func tanhAsm(dst, x []float64) {
	tanhAVX2(dst, x)
	i := len(dst) &^ 3
	tanhGo(dst[i:], x[i:len(dst)])
}

// matvecRowsAsm runs whole blocks of four rows in assembly and the rest row
// by row.
func matvecRowsAsm(dst, x, w []float64, rows, in, n int) {
	r := rows &^ 3
	if r > 0 {
		matvecRowsAVX512(dst, x, w, r, in, n)
	}
	for ; r < rows; r++ {
		matvecAVX512(dst[r*n:(r+1)*n], x[r*in:(r+1)*in], w)
	}
}

// gradXRowAsm runs whole blocks of eight k in assembly and the k tail in the
// reference body.
func gradXRowAsm(xd, d, w []float64) {
	k := len(xd) &^ 7
	if k > 0 {
		gradXRowAVX512(xd[:k], d, w)
	}
	gradXRowGo(xd[k:], d, w[k*len(d):])
}

// sumSquaresAsm sums whole groups of sixteen squares in assembly and the
// rest in the reference body.
func sumSquaresAsm(x []float64) float64 {
	n := len(x) &^ 15
	if n == 0 {
		return sumSquaresLanesGo(x)
	}
	return sumSquaresAVX2(x[:n]) + sumSquaresLanesGo(x[n:])
}

func adamAsm(w, dw, m, v []float64, c adamCoef) {
	adamAVX2(w, dw, m, v, c)
	i := len(w) &^ 3
	adamGo(w[i:], dw[i:], m[i:], v[i:], c)
}

func init() {
	if ks, ok := asmBody(); ok {
		kernels = ks
	}
}

// asmBody returns the assembly body this CPU can run, and false where it
// runs none: the multiply-add primitives, Adam and the clip's sum of squares
// need AVX2, the multiply-adds take their AVX-512 bodies where there is
// AVX-512 too (gradXRow and matvecRows have only that one, the reference
// body elsewhere); the activations also need FMA, their exp's fused steps.
func asmBody() (kernelSet, bool) {
	avx2, fma, avx512 := cpuFeatures()
	if !avx2 {
		return kernelSet{}, false
	}
	ks := goKernels
	ks.matvec, ks.gradX, ks.gradW = matvecAVX2, gradXAVX2, gradWAVX2
	if avx512 {
		ks.matvec, ks.gradX, ks.gradW = matvecAVX512, gradXAVX512, gradWAVX512
		ks.gradXRow, ks.matvecRows = gradXRowAsm, matvecRowsAsm
	}
	ks.adam, ks.sumSquares = adamAsm, sumSquaresAsm
	if fma {
		ks.sigmoid, ks.tanh, ks.expShift = sigmoidAsm, tanhAsm, expShiftAsm
	}
	return ks, true
}

// cpuFeatures reports whether the CPU implements AVX2, AVX2 and FMA, and
// AVX2 and AVX512F, with the operating system saving the YMM state — and for
// AVX512F the opmask and ZMM state too — across context switches.
func cpuFeatures() (avx2, fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false, false
	}
	const fmaBit, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, c, _ := cpuid(1, 0)
	if c&osxsave == 0 || c&avx == 0 {
		return false, false, false
	}
	// XCR0 bits 1–2 (XMM, YMM); for AVX-512 also 5–7 (opmask, ZMM 0–15 upper
	// halves, ZMM 16–31).
	const xmmYmmState, zmmState = 0b110, 0xE6
	xcr0, _ := xgetbv()
	if xcr0&xmmYmmState != xmmYmmState {
		return false, false, false
	}
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	_, b, _, _ := cpuid(7, 0)
	avx2 = b&avx2Bit != 0
	return avx2, avx2 && c&fmaBit != 0, avx2 && b&avx512fBit != 0 && xcr0&zmmState == zmmState
}
