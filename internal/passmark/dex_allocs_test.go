//go:build !race

package passmark

import (
	"testing"

	"repro/internal/dalvik"
	"repro/internal/kernel"
)

// TestVMRunAllocs pins a second Run of each of the app's DEX methods on
// the same VM at zero allocations: the VM reuses its frames, register
// windows and freed array backings, and the method's decoded form is
// built once, by Assemble. The race runtime allocates on its own
// account, so this file is left out of -race builds and `make verify`
// runs the test in its switch-allocs step.
func TestVMRunAllocs(t *testing.T) {
	onNexus7(t, func(th *kernel.Thread, vm *dalvik.VM, dex *dalvik.File) {
		for _, r := range dexRuns {
			if _, err := vm.Run(th, dex, r.method, r.arg); err != nil {
				t.Errorf("%s: %v", r.method, err)
				continue
			}
			got := testing.AllocsPerRun(1, func() {
				if _, err := vm.Run(th, dex, r.method, r.arg); err != nil {
					t.Errorf("%s: %v", r.method, err)
				}
			})
			if got != 0 {
				t.Errorf("%s: a second Run allocated %v objects, want 0", r.method, got)
			}
		}
	})
}
