package libsystem

import (
	"slices"
	"testing"

	"repro/internal/kernel"
)

// TestClonedHandlersDoNotAlias forks a State whose lists end in counted
// image runs (as dyld's registrations leave them), registers a different
// handler of each kind on both sides, extends the parent's image run, and
// checks that each side runs exactly its own: the clone shares the
// arrays but no registration reaches the other.
func TestClonedHandlersDoNotAlias(t *testing.T) {
	var ran []string
	mark := func(tag string) Handler { return func(*kernel.Thread) { ran = append(ran, tag) } }
	image := &ImageHooks{Exit: mark("image"), Prepare: mark("image"), Parent: mark("image"), Child: mark("image")}
	parent := &State{}
	parent.AtExit(mark("base"))
	parent.AtFork(mark("base"), mark("base"), mark("base"))
	parent.AtImage(image)
	parent.AtImage(image)
	child := parent.CloneUserData().(*State)
	parent.AtImage(image)
	parent.AtExit(mark("parent"))
	parent.AtFork(mark("parent"), mark("parent"), mark("parent"))
	child.AtExit(mark("child"))
	child.AtFork(mark("child"), mark("child"), mark("child"))
	child.AtImage(image)
	parent.AtExit(mark("parent2"))

	lists := func(s *State) [][]handlerRun {
		return [][]handlerRun{s.atexit, s.atforkPrepare, s.atforkParent, s.atforkChild}
	}
	run := func(hs []handlerRun) []string {
		ran = nil
		runForward(hs, nil)
		return ran
	}
	for i, hs := range lists(parent) {
		want := []string{"base", "image", "image", "image", "parent"}
		if i == 0 {
			want = append(want, "parent2")
		}
		if got := run(hs); !slices.Equal(got, want) {
			t.Errorf("parent list %d runs %v, want %v", i, got, want)
		}
	}
	for i, hs := range lists(child) {
		if got, want := run(hs), []string{"base", "image", "image", "child", "image"}; !slices.Equal(got, want) {
			t.Errorf("child list %d runs %v, want %v", i, got, want)
		}
	}
}

// TestImageRunsMatchSingleRegistrations registers the same sequence once
// through AtImage and once as the AtExit/AtFork calls it stands for, and
// checks the counts, the list entries (one run per stretch of image
// registrations) and the order each list runs in, forward and reverse.
func TestImageRunsMatchSingleRegistrations(t *testing.T) {
	var ran []string
	mark := func(tag string) Handler { return func(*kernel.Thread) { ran = append(ran, tag) } }
	image := &ImageHooks{Exit: mark("i"), Prepare: mark("i"), Parent: mark("i"), Child: mark("i")}
	other := &ImageHooks{Exit: mark("o"), Prepare: mark("o"), Child: mark("o")}
	counted, single := &State{}, &State{}
	steps := []*ImageHooks{image, image, nil, image, other, other, image}
	for _, h := range steps {
		if h == nil {
			counted.AtExit(mark("x"))
			counted.AtFork(mark("x"), nil, mark("x"))
			single.AtExit(mark("x"))
			single.AtFork(mark("x"), nil, mark("x"))
			continue
		}
		counted.AtImage(h)
		single.AtExit(h.Exit)
		single.AtFork(h.Prepare, h.Parent, h.Child)
	}
	if a, b := counted.atexit, single.atexit; len(a) != 5 || len(b) != len(steps) {
		t.Fatalf("atexit entries: %d counted, %d single; want 5 and %d", len(a), len(b), len(steps))
	}
	var gotCounts, wantCounts [4]int
	gotCounts[0], gotCounts[1], gotCounts[2], gotCounts[3] = counted.Counts()
	wantCounts[0], wantCounts[1], wantCounts[2], wantCounts[3] = single.Counts()
	if gotCounts != wantCounts {
		t.Fatalf("Counts() = %v, want %v", gotCounts, wantCounts)
	}
	order := func(list []handlerRun, reverse bool) []string {
		ran = nil
		if reverse {
			runReverse(list, nil)
		} else {
			runForward(list, nil)
		}
		return ran
	}
	cl := [][]handlerRun{counted.atexit, counted.atforkPrepare, counted.atforkParent, counted.atforkChild}
	sl := [][]handlerRun{single.atexit, single.atforkPrepare, single.atforkParent, single.atforkChild}
	for i := range cl {
		for _, rev := range []bool{false, true} {
			if got, want := order(cl[i], rev), order(sl[i], rev); !slices.Equal(got, want) {
				t.Errorf("list %d (reverse %v) runs %v, want %v", i, rev, got, want)
			}
		}
	}
}
