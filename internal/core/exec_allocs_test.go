//go:build !race

package core

import "testing"

// execAllocBound caps the heap allocations of one replayed iOS exec. The
// measured count is 207 on go1.24/amd64: the task, thread and Proc, the
// kernel's Mach-O load, one co-allocated region per dylib segment (118),
// and the growth of the libSystem handler lists. The bound leaves ~15%
// headroom for toolchain drift. Rebuilding the image table per exec, a
// per-exec link-graph walk, or separate region/store/account objects per
// mapping each add more than 100 and trip it.
const execAllocBound = 240

// TestExecIOSAllocs pins the host allocations of an iOS exec that replays
// a recorded link plan. The race runtime allocates on its own account, so
// this file is left out of -race builds and `make verify` runs the test
// in its switch-allocs step.
func TestExecIOSAllocs(t *testing.T) {
	sys, exec := execSystem(t)
	defer sys.Close()
	got := testing.AllocsPerRun(50, exec)
	if got > execAllocBound {
		t.Fatalf("replayed iOS exec allocated %v objects, bound %d", got, execAllocBound)
	}
	t.Logf("replayed iOS exec: %v allocations (bound %d)", got, execAllocBound)
}
