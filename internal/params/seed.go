package params

// Seed derivation for concurrent work. Every parallel task (a synthesis
// wave's category tasks, dialogue synthesis chunks) draws its randomness from
// an independent RNG whose seed is derived deterministically from the run
// seed, a stage label, and the task index. Scheduling therefore never
// influences which values are drawn: the same seed produces the same dataset
// whether the work runs on one worker or many.

// DeriveSeed deterministically derives an independent RNG seed for
// sub-stream index of the named stage.
func DeriveSeed(base int64, stage string, index int) int64 {
	h := uint64(base) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(stage) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= uint64(index+1) * 0xbf58476d1ce4e5b9
	return int64(splitmix64(h))
}

// splitmix64 is the finalizer of the SplitMix64 generator; it maps distinct
// inputs to well-distributed outputs and is the standard way to expand one
// seed into a family of stream seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
