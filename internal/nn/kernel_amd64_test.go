//go:build amd64 && !purego

package nn

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asmKernels returns the assembly body, and whether this CPU can run it.
func asmKernels() (kernelSet, bool) { return asmBody() }

// TestActivationProbe: on a CPU with AVX2 and FMA the init-time probe accepts
// the assembly activations, so they are what runs — unless GODEBUG has turned
// math.Exp's FMA path off, and then it must refuse them. The test runs itself
// again under GODEBUG=cpu.fma=off to see the refusal.
func TestActivationProbe(t *testing.T) {
	if avx2, fma := cpuFeatures(); !avx2 || !fma {
		t.Skip("CPU without AVX2 and FMA: the activations have no assembly body here")
	}
	act := goKernels
	act.sigmoid, act.tanh, act.expShift = sigmoidAsm, tanhAsm, expShiftAsm
	fmaOff := strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off")
	if agree := activationsAgree(act); agree == fmaOff {
		t.Fatalf("probe agreement = %v under GODEBUG=%q", agree, os.Getenv("GODEBUG"))
	}
	if fmaOff {
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestActivationProbe$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
