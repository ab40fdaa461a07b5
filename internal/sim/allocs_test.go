//go:build !race

package sim

import (
	"testing"
	"time"
)

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

// TestSpawnAllocs pins the host cost of a Proc: spawning one and
// running it to completion allocates 14 objects (its Proc, its coroutine
// and the closures and captured variables of iter.Pull; a goroutine and
// a channel cost 3). The count is the difference between simulations of
// 64 and of 32 Procs, per Proc, so the Sim's own allocations cancel out;
// the bound leaves about 15% of headroom.
func TestSpawnAllocs(t *testing.T) {
	allocs := func(procs int) float64 {
		return testing.AllocsPerRun(20, func() {
			s := New()
			for i := 0; i < procs; i++ {
				s.Spawn("p", func(p *Proc) { p.Advance(time.Microsecond) })
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const bound = 16
	per := (allocs(64) - allocs(32)) / 32
	t.Logf("%.2f allocations per Proc (bound %d)", per, bound)
	if per > bound {
		t.Fatalf("a Proc costs %.2f allocations, bound %d", per, bound)
	}
}
