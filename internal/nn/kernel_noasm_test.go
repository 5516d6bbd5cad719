//go:build !amd64 || purego

package nn

// asmKernels reports that this build has no assembly body.
func asmKernels() map[string]kernelSet { return nil }
