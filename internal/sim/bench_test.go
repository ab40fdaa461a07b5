package sim

import (
	"testing"
	"time"
)

// BenchmarkPingPongHandoff measures the raw cost of one simulated context
// switch: two Procs bouncing park/wake, so every round trip is two full
// run-token handoffs. This is the hot path every kernel sleep/wakeup
// (pipes, Mach IPC, select) pays.
func BenchmarkPingPongHandoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pingPong(1000); err != nil {
			b.Fatal(err)
		}
	}
}

// pingPong runs two Procs bouncing park/wake for rounds round trips,
// each round trip two full run-token handoffs.
func pingPong(rounds int) error {
	s := New()
	var pa, pb *Proc
	pa = s.Spawn("a", func(p *Proc) {
		for j := 0; j < rounds; j++ {
			p.Advance(time.Microsecond)
			p.Wake(pb, WakeNormal)
			p.Park("pong")
		}
		p.Wake(pb, WakeInterrupted)
	})
	pb = s.Spawn("b", func(p *Proc) {
		for {
			if p.Park("ping") == WakeInterrupted {
				return
			}
			p.Advance(time.Microsecond)
			p.Wake(pa, WakeNormal)
		}
	})
	return s.Run()
}

// BenchmarkAdvanceSoleRunnable measures Advance when the running Proc is
// the only runnable one — the same-proc fast path a single-threaded
// benchmark driver hits on every compute charge.
func BenchmarkAdvanceSoleRunnable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		s.Spawn("solo", func(p *Proc) {
			for j := 0; j < 1000; j++ {
				p.Advance(time.Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdvanceTwoRunnable measures Advance with a second runnable Proc
// at an equal-or-later clock: the case where the old scheduler bounced
// through a full handoff even though the running Proc stayed the min.
func BenchmarkAdvanceTwoRunnable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		s.Spawn("lead", func(p *Proc) {
			for j := 0; j < 1000; j++ {
				p.Advance(time.Microsecond)
			}
		})
		s.Spawn("tail", func(p *Proc) {
			p.Advance(100 * time.Millisecond)
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaitQueueChurn measures enqueue/remove churn on one queue with
// many waiters — the select/poll shape where a Proc enqueues on N queues
// and every wake removes it from all of them.
func BenchmarkWaitQueueChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		q := NewWaitQueue("churn")
		const waiters = 64
		for w := 0; w < waiters; w++ {
			s.Spawn("w", func(p *Proc) {
				q.Wait(p)
			})
		}
		s.Spawn("waker", func(p *Proc) {
			p.Advance(time.Millisecond)
			// Wake in reverse-ish order via Dequeue+Wake of the newest
			// waiter: the worst case for the O(n) slice scan.
			for q.Len() > 0 {
				q.WakeOne(p, WakeNormal)
			}
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunQueue measures the run queue on the sleep operation mix:
// arm a timeout, cancel it before expiry (the pipe/IPC/select shape where
// the wake almost always beats the timer), occasionally letting one
// expire.
func BenchmarkRunQueue(b *testing.B) {
	b.ReportAllocs()
	procs := makeBenchSleepers(64)
	rq := &procHeap{}
	for i, p := range procs {
		rq.push(p, time.Duration(i+1)*time.Microsecond)
	}
	floor := time.Duration(0) // the last expired deadline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p *Proc
		if i%16 == 15 {
			p = rq.pop() // timer actually expires
			floor = p.due
		} else {
			// Wake beats the timer: cancel an arbitrary sleeper + re-arm.
			// (Mixed pick, not FIFO — waking in exact arm order would make
			// every cancel hit the min, which no real wake pattern does.)
			p = procs[(uint64(i)*0x9e3779b97f4a7c15>>32)%uint64(len(procs))]
			rq.remove(p)
		}
		rq.push(p, floor+time.Duration(1+(i%1000))*time.Microsecond)
	}
}

func makeBenchSleepers(n int) []*Proc {
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = &Proc{id: i, heapIndex: -1}
	}
	return procs
}
