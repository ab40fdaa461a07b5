package macho

// SharedFilesLen reports how many parsed images sharedFiles holds.
func SharedFilesLen() int {
	n := 0
	sharedFiles.Range(func(_, _ any) bool { n++; return true })
	return n
}
