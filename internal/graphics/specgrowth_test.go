package graphics_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graphics"
)

// TestGLSpecsStopGrowing is the gate on glSpecs, which pins the three
// libraries of every spec list it has generated: after one round of
// Cider boots, further boots of every Cider configuration must hit it. A
// library copied per boot adds one entry per boot.
func TestGLSpecsStopGrowing(t *testing.T) {
	on := true
	opts := []core.Options{{}, {SharedCache: &on}, {FixFences: &on}}
	var settled int
	for round := 0; round < 3; round++ {
		for _, o := range opts {
			sys, err := core.NewSystem(core.ConfigCider, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(sys.GLSpecs) == 0 {
				t.Fatal("Cider boot generated no GL diplomats")
			}
			sys.Close()
		}
		if round == 0 {
			settled = graphics.GLSpecsLen()
		} else if got := graphics.GLSpecsLen(); got != settled {
			t.Fatalf("round %d: glSpecs grew %d -> %d entries", round, settled, got)
		}
	}
}
