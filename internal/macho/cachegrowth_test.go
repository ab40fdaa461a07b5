package macho_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/macho"
	"repro/internal/prog"
)

// TestSharedFilesStopGrowing is the gate on sharedFiles, which pins every
// image it has parsed: after one round of boots, further boots of every
// iOS configuration, each installing and running the same iOS binary,
// must add no entries. A daemon or test binary marshalled per boot adds
// one entry per copy.
func TestSharedFilesStopGrowing(t *testing.T) {
	on := true
	boots := []struct {
		cfg  core.Config
		opts core.Options
	}{
		{core.ConfigCider, core.Options{}},
		{core.ConfigCider, core.Options{SharedCache: &on}},
		{core.ConfigIPad, core.Options{}},
	}
	var settled int
	for round := 0; round < 3; round++ {
		for _, b := range boots {
			sys, err := core.NewSystem(b.cfg, b.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.BootServices(); err != nil {
				t.Fatal(err)
			}
			if err := sys.InstallIOSBinary("/bin/gate", "shared-files-gate", nil, func(*prog.Call) uint64 { return 0 }); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Start("/bin/gate", nil); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			sys.Close()
		}
		if round == 0 {
			settled = macho.SharedFilesLen()
		} else if got := macho.SharedFilesLen(); got != settled {
			t.Fatalf("round %d: sharedFiles grew %d -> %d entries", round, settled, got)
		}
	}
}
