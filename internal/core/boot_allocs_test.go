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
// of the same configuration has sized the registry, built the shared
// syscall tables and the export keys. The measured counts on
// go1.24/amd64 are 145 (android-vanilla), 418 (cider) and 212 (ipad);
// each bound leaves ~15% headroom for toolchain drift. Cloning the
// filesystem images one node at a time adds ~45 to android-vanilla and
// ~300 to each iOS configuration, and building the libraries' export
// keys on every boot adds ~65 to android-vanilla and ipad and ~190 to
// cider; either trips every bound.
var bootAllocBound = map[Config]float64{
	ConfigVanilla: 167,
	ConfigCider:   481,
	ConfigIPad:    244,
}

// tableAllocBound caps the allocations of installing a Cider kernel's
// two syscall tables, Linux and XNU, once the process holds the shared
// tables of its shape: one view of each. Building a table per kernel
// (the struct, its dense array and outlier map, and one forwarding
// closure per wrapped XNU call: 33 objects for the two) trips it.
const tableAllocBound = 2

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
