package dyld_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dyld"
	"repro/internal/prog"
)

// TestManifestCacheStopsGrowing is the gate on manifestCache, which pins
// every manifest it has decoded: after one round of boots, further boots
// of every iOS configuration, each running one iOS binary, must hit it.
// A manifest built per boot adds one entry per shared-cache boot.
func TestManifestCacheStopsGrowing(t *testing.T) {
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
			if err := sys.InstallIOSBinary("/bin/gate", "manifest-gate", nil, func(*prog.Call) uint64 { return 0 }); err != nil {
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
			settled = dyld.ManifestCacheLen()
		} else if got := dyld.ManifestCacheLen(); got != settled {
			t.Fatalf("round %d: manifest cache grew %d -> %d entries", round, settled, got)
		}
	}
}
