//go:build !race

package core

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// bootAllocBound caps the heap allocations of one NewSystem per
// configuration, once the filesystem templates exist and an earlier boot
// of the same configuration has sized the registry. The measured counts
// on go1.24/amd64 are 211 (android-vanilla), 634 (cider) and 304 (ipad);
// each bound leaves ~15% headroom for toolchain drift. Cloning the
// filesystem images one node at a time adds ~45 to android-vanilla and
// ~300 to each iOS configuration, and trips every bound.
var bootAllocBound = map[Config]float64{
	ConfigVanilla: 243,
	ConfigCider:   729,
	ConfigIPad:    350,
}

// tableAllocBound caps the allocations of building a Cider kernel's two
// syscall tables, Linux and XNU. The measured count is 33: per table
// the struct, its dense array and its outlier map, plus one forwarding
// closure per wrapped XNU call. The bound leaves ~15% headroom. Growing
// the dense arrays by Register instead of sizing them once from the
// definition lists adds ~7 per table and trips it.
const tableAllocBound = 38

// TestBootAllocs pins the host allocations of a boot, and of the syscall
// tables within it. The race runtime allocates on its own account, so
// this file is left out of -race builds and `make verify` runs the test
// in its switch-allocs step.
func TestBootAllocs(t *testing.T) {
	const runs = 20
	for _, cfg := range []Config{ConfigVanilla, ConfigCider, ConfigIPad} {
		// AllocsPerRun calls the function runs+1 times; the systems are
		// closed afterwards so Close's allocations stay out of the count.
		systems := make([]*System, 0, runs+1)
		got := testing.AllocsPerRun(runs, func() {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			systems = append(systems, sys)
		})
		for _, sys := range systems {
			sys.Close()
		}
		if bound := bootAllocBound[cfg]; got > bound {
			t.Errorf("%s boot allocated %v objects, bound %v", cfg, got, bound)
		} else {
			t.Logf("%s boot: %v allocations (bound %v)", cfg, got, bound)
		}
	}

	k, err := kernel.New(sim.New(), kernel.Config{
		Profile: kernel.ProfileCider, Device: hw.Nexus7(), Root: vfs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(runs, func() {
		k.InstallLinuxTable()
		abi.InstallXNUTable(k)
	})
	if got > tableAllocBound {
		t.Errorf("building the Linux and XNU syscall tables allocated %v objects, bound %d", got, tableAllocBound)
	} else {
		t.Logf("syscall tables: %v allocations (bound %d)", got, tableAllocBound)
	}
}
