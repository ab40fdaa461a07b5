package graphics

// GLSpecsLen reports how many generated spec lists glSpecs holds.
func GLSpecsLen() int {
	n := 0
	glSpecs.Range(func(_, _ any) bool { n++; return true })
	return n
}
