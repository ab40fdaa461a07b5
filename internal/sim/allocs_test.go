//go:build !race

package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestSwitchRoundAllocs pins the context-switch round — the park/wake
// handoff every kernel sleep and wakeup pays — at zero allocations, and
// with it both kinds of timed wait the run queue carries: a WaitTimeout
// that a WakeOne cancels (the pipe, port and select shape) and a Sleep
// that expires. A run with twice the rounds allocates exactly as much,
// so the rounds themselves allocate nothing. The race runtime allocates
// on its own account, so this file is left out of -race builds and
// `make verify` runs the test in a separate step.
func TestSwitchRoundAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		round func(rounds int) error
	}{
		{"park/wake", pingPong},
		{"WaitTimeout cancelled by WakeOne", cancelledTimeouts},
		{"Sleep expires", expiringSleeps},
	} {
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(20, func() {
				if err := tc.round(rounds); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(1000), allocs(2000); long != short {
			t.Errorf("%s: 1000 more rounds allocated %v more objects (%v vs %v per run), want 0", tc.name, long-short, long, short)
		}
	}
}

// cancelledTimeouts runs rounds timed waits that never expire: a waiter
// arms a one-second WaitTimeout and a waker, a microsecond later, wakes
// it with WakeOne, taking the sleeper out of the run queue.
func cancelledTimeouts(rounds int) error {
	s := New()
	q := NewWaitQueue("timeout")
	var err error
	s.Spawn("waiter", func(p *Proc) {
		for j := 0; j < rounds; j++ {
			if _, timedOut := q.WaitTimeout(p, time.Second); timedOut {
				err = fmt.Errorf("round %d: WaitTimeout expired, want a WakeOne", j)
				return
			}
		}
	})
	s.Spawn("waker", func(p *Proc) {
		for j := 0; j < rounds; j++ {
			p.Advance(time.Microsecond)
			if q.WakeOne(p, WakeNormal) == nil {
				err = fmt.Errorf("round %d: WakeOne found no waiter", j)
				return
			}
		}
	})
	if rerr := s.Run(); rerr != nil {
		return rerr
	}
	return err
}

// expiringSleeps runs rounds sleeps per Proc for two Procs whose
// one-microsecond sleeps expire in turn, each expiry a switch.
func expiringSleeps(rounds int) error {
	s := New()
	var err error
	for i := 0; i < 2; i++ {
		s.Spawn("sleeper", func(p *Proc) {
			for j := 0; j < rounds; j++ {
				if tag := p.Sleep(time.Microsecond); tag != WakeNormal && err == nil {
					err = fmt.Errorf("round %d: Sleep returned tag %d, want an expiry", j, tag)
				}
			}
		})
	}
	if rerr := s.Run(); rerr != nil {
		return rerr
	}
	return err
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
