//go:build amd64 && !purego

package nn

// asmKernels returns the assembly body, and whether this CPU can run it.
func asmKernels() (kernelSet, bool) { return avx2Kernels, hasAVX2() }
