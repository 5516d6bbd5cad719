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
func gradXAVX2(ad0, ad1, d0, d1, w []float64)

//go:noescape
func gradXAVX512(ad0, ad1, d0, d1, w []float64)

//go:noescape
func gradWAVX2(wd, a, d []float64, rows, kn, in, n int)

//go:noescape
func gradWAVX512(wd, a, d []float64, rows, kn, in, n int)

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
// runs none: the multiply-add primitives and Adam need AVX2, the former take
// their AVX-512 bodies where there is AVX-512 too; the activations also need
// FMA — the path math.Exp takes on such a CPU — and must pass the probe
// against the reference body.
func asmBody() (kernelSet, bool) {
	avx2, fma, avx512 := cpuFeatures()
	if !avx2 {
		return kernelSet{}, false
	}
	ks := goKernels
	ks.matvec, ks.gradX, ks.gradW = matvecAVX2, gradXAVX2, gradWAVX2
	if avx512 {
		ks.matvec, ks.gradX, ks.gradW = matvecAVX512, gradXAVX512, gradWAVX512
	}
	ks.adam = adamAsm
	if fma {
		act := ks
		act.sigmoid, act.tanh, act.expShift = sigmoidAsm, tanhAsm, expShiftAsm
		if activationsAgree(act) {
			ks = act
		}
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
