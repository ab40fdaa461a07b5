package dyld

// ManifestCacheLen reports how many decoded manifests manifestCache holds.
func ManifestCacheLen() int {
	n := 0
	manifestCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// ResetLinkPlans empties the link-plan cache, so the next exec of every
// root set walks the filesystem (and records a plan again).
func ResetLinkPlans() {
	linkPlans.Range(func(k, _ any) bool { linkPlans.Delete(k); return true })
}

// LinkPlansLen reports how many root sets have a recorded plan.
func LinkPlansLen() int {
	n := 0
	linkPlans.Range(func(_, _ any) bool { n++; return true })
	return n
}
