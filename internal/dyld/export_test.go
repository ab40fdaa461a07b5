package dyld

// ManifestCacheLen reports how many decoded manifests manifestCache holds.
func ManifestCacheLen() int {
	n := 0
	manifestCache.Range(func(_, _ any) bool { n++; return true })
	return n
}
