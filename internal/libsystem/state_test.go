package libsystem

import (
	"slices"
	"testing"

	"repro/internal/kernel"
)

// TestClonedHandlersDoNotAlias forks a State whose lists have spare
// capacity (as dyld's Reserve leaves them), appends a different handler
// to each kind on both sides, and checks that each side runs exactly
// its own: the clone shares the arrays but no append reaches the other.
func TestClonedHandlersDoNotAlias(t *testing.T) {
	var ran []string
	mark := func(tag string) Handler { return func(*kernel.Thread) { ran = append(ran, tag) } }
	parent := &State{}
	parent.Reserve(8)
	parent.AtExit(mark("base"))
	parent.AtFork(mark("base"), mark("base"), mark("base"))
	child := parent.CloneUserData().(*State)
	parent.AtExit(mark("parent"))
	parent.AtFork(mark("parent"), mark("parent"), mark("parent"))
	child.AtExit(mark("child"))
	child.AtFork(mark("child"), mark("child"), mark("child"))
	parent.AtExit(mark("parent2"))

	lists := func(s *State) [][]Handler {
		return [][]Handler{s.atexit, s.atforkPrepare, s.atforkParent, s.atforkChild}
	}
	run := func(hs []Handler) []string {
		ran = nil
		for _, h := range hs {
			h(nil)
		}
		return ran
	}
	for i, hs := range lists(parent) {
		want := []string{"base", "parent"}
		if i == 0 {
			want = append(want, "parent2")
		}
		if got := run(hs); !slices.Equal(got, want) {
			t.Errorf("parent list %d runs %v, want %v", i, got, want)
		}
	}
	for i, hs := range lists(child) {
		if got, want := run(hs), []string{"base", "child"}; !slices.Equal(got, want) {
			t.Errorf("child list %d runs %v, want %v", i, got, want)
		}
	}
}
