package nn

// Test access to the team for the external tests of this package.

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
