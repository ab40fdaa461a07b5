//go:build !race

package sim

import "testing"

// TestSwitchRoundAllocs pins the context-switch round — the park/wake
// handoff every kernel sleep and wakeup pays — at zero allocations: a
// ping-pong run with twice the rounds allocates exactly as much, so the
// rounds themselves allocate nothing. The race runtime allocates on its
// own account, so this file is left out of -race builds and `make
// verify` runs the test in a separate step.
func TestSwitchRoundAllocs(t *testing.T) {
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := pingPong(rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(1000), allocs(2000); long != short {
		t.Fatalf("1000 more switch rounds allocated %v more objects (%v vs %v per run), want 0", long-short, long, short)
	}
}
