//go:build go1.23

package sim

import "iter"

// newCoro makes p's coroutine, which runs body(p) from its first resume.
// iter.Pull's coroutine switch moves between two goroutines on one thread
// without a pass through the Go scheduler. The build constraint raises
// this one file's language version while go.mod stays at go 1.22 (see
// DESIGN.md §4).
func newCoro(p *Proc, body func(*Proc)) {
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
	})
}
