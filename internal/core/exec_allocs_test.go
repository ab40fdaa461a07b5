//go:build !race

package core

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/persona"
)

// execAllocBound caps the heap allocations of one replayed iOS exec. The
// measured count is 72 on go1.24/amd64: the task, thread and Proc, the
// kernel's Mach-O load (a store for the executable's file bytes),
// the region table and one region slab for dyld's segments, and the
// libSystem state whose handler lists hold dyld's 115 per-image
// registrations as one counted run each. The bound leaves ~15% headroom
// for toolchain drift. An allocation per mapped segment (a region, or a
// store for a segment nothing touches) or per handler registration adds
// more than 100 and trips it.
const execAllocBound = 83

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

// forkAllocBound caps the heap allocations of one libSystem fork of an
// iOS process holding the 115-dylib image set, with the child's exit and
// the parent's wait. The measured count is 51 on go1.24/amd64, and the
// bound leaves ~15% headroom. The child's regions come from one slab and
// its untouched dylib segments need no stores, so the count does not
// grow with the mapping count; one allocation per region (118 of them)
// exceeds the bound on its own.
const forkAllocBound = 59

// TestForkIOSAllocs pins the host allocations of fork+exit+wait in a
// booted iOS process.
func TestForkIOSAllocs(t *testing.T) {
	inProc(t, persona.IOS, func(th *kernel.Thread) {
		regions := len(th.Task().Mem().Regions())
		if regions <= forkAllocBound {
			t.Errorf("process holds %d regions, want more than the bound %d", regions, forkAllocBound)
			return
		}
		lc := libsystem.Sys(th)
		got := testing.AllocsPerRun(20, func() {
			pid := lc.Fork(func(cc *libsystem.C) { cc.Exit(0) })
			if pid < 0 {
				t.Error("fork failed")
				return
			}
			if _, _, errno := lc.Wait(pid); errno != kernel.OK {
				t.Errorf("wait: %v", errno)
			}
		})
		if got > forkAllocBound {
			t.Errorf("iOS fork+exit+wait over %d regions allocated %v objects, bound %d", regions, got, forkAllocBound)
		}
		t.Logf("iOS fork+exit+wait over %d regions: %v allocations (bound %d)", regions, got, forkAllocBound)
	})
}
