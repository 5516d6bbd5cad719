//go:build amd64 && !purego

package nn

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// asmKernels returns the assembly bodies this CPU can run, by name: "avx2",
// and "avx512" — the body asmBody selects — where matvec, gradX, gradW,
// gradXRow and matvecRows have their AVX-512 bodies. An AVX-512 host thus
// still runs the AVX2 bodies (and gradXRow's reference and matvecRows row by
// row, as an AVX2 host does).
func asmKernels() map[string]kernelSet {
	ks, ok := asmBody()
	if !ok {
		return nil
	}
	avx2 := ks
	avx2.matvec, avx2.gradX, avx2.gradW = matvecAVX2, gradXAVX2, gradWAVX2
	avx2.gradXRow, avx2.matvecRows = gradXRowGo, nil
	bodies := map[string]kernelSet{"avx2": avx2}
	if _, _, avx512 := cpuFeatures(); avx512 {
		bodies["avx512"] = ks
	}
	return bodies
}

func sameFunc(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }

// TestKernelSelection: matvec, gradX and gradW run their AVX-512 bodies
// exactly where cpuFeatures reports AVX512F with the ZMM state, and their
// AVX2 bodies on every other AVX2 CPU; gradXRow runs its AVX-512 body there
// and the reference elsewhere, matvecRows its AVX-512 body there and matvec
// row by row elsewhere; Adam and the clip's sum of squares keep their AVX2
// bodies; the activations run their assembly bodies exactly where
// cpuFeatures reports AVX2 and FMA, and the reference elsewhere. Where the
// kernel lists the CPU's flags (Linux /proc/cpuinfo), cpuFeatures must agree
// with them, so a broken feature check fails here rather than quietly
// selecting the narrower body. Run with -v, the log names the bodies in use.
func TestKernelSelection(t *testing.T) {
	avx2, fma, avx512 := cpuFeatures()
	t.Logf("cpuFeatures: avx2=%t fma=%t avx512=%t", avx2, fma, avx512)
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		flags := map[string]bool{}
		for _, line := range strings.Split(string(raw), "\n") {
			if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				for _, f := range strings.Fields(list) {
					flags[f] = true
				}
				break
			}
		}
		if flags["avx2"] != avx2 || (flags["avx2"] && flags["fma"]) != fma || (flags["avx2"] && flags["avx512f"]) != avx512 {
			t.Fatalf("cpuFeatures avx2=%t fma=%t avx512=%t, but /proc/cpuinfo lists avx2=%t fma=%t avx512f=%t",
				avx2, fma, avx512, flags["avx2"], flags["fma"], flags["avx512f"])
		}
	}
	if !avx2 {
		if _, ok := asmBody(); ok {
			t.Fatal("an assembly body was selected on a CPU without AVX2")
		}
		t.Log("kernels: go (no AVX2)")
		return
	}
	name := "avx2"
	if avx512 {
		name = "avx512"
	}
	act, sig, th, es := "go", any(sigmoidGo), any(tanhGo), any(expShiftGo)
	if fma {
		act, sig, th, es = "avx2+fma", sigmoidAsm, tanhAsm, expShiftAsm
	}
	for _, p := range []struct {
		name               string
		got, onAVX2, on512 any
	}{
		{"matvec", kernels.matvec, matvecAVX2, matvecAVX512},
		{"gradX", kernels.gradX, gradXAVX2, gradXAVX512},
		{"gradW", kernels.gradW, gradWAVX2, gradWAVX512},
		{"gradXRow", kernels.gradXRow, gradXRowGo, gradXRowAsm},
		{"matvecRows", kernels.matvecRows, (func(dst, x, w []float64, rows, in, n int))(nil), matvecRowsAsm},
		{"adam", kernels.adam, adamAsm, adamAsm},
		{"sumSquares", kernels.sumSquares, sumSquaresAsm, sumSquaresAsm},
		{"sigmoid", kernels.sigmoid, sig, sig},
		{"tanh", kernels.tanh, th, th},
		{"expShift", kernels.expShift, es, es},
	} {
		want := p.onAVX2
		if avx512 {
			want = p.on512
		}
		if !sameFunc(p.got, want) {
			t.Fatalf("kernels.%s is not the body an %s CPU (fma=%t) gets", p.name, name, fma)
		}
	}
	row := "go"
	if avx512 {
		row = "avx512"
	}
	t.Logf("kernels: matvec/gradX/gradW=%s gradXRow/matvecRows=%s adam/sumSquares=avx2 activations=%s; parity tests run %d bodies", name, row, act, len(kernelBodies()))
}
