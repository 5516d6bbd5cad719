package nn

import "math"

// Test access to the team, and to the digest's math.Exp path, for the
// external tests of this package.

// TeamCounts returns how many jobs the team has been posted, and how many of
// those their callers claimed back.
func TeamCounts() (posted, reclaimed int64) {
	return helpers.posted.Load(), helpers.reclaimed.Load()
}

// ForceClaimBack makes helpers leave every posted job to be claimed back,
// until the returned func restores them.
func ForceClaimBack() (restore func()) {
	forceClaimBack.Store(true)
	return func() { forceClaimBack.Store(false) }
}

// ExpDigest returns fma when math.Exp takes its FMA path here (amd64 with
// AVX2 and FMA, unless GODEBUG=cpu.fma=off), and noFMA when it does not. The
// two paths round some arguments one ulp apart — exp(−46) among them — so a
// digest that runs through exp or tanh is recorded once on each path.
func ExpDigest(fma, noFMA string) string {
	if math.Float64bits(math.Exp(-46)) == 0x3bc8dd5e1bb09d7f {
		return fma
	}
	return noFMA
}
