package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSingleProcAdvance(t *testing.T) {
	s := New()
	var end time.Duration
	s.Spawn("a", func(p *Proc) {
		p.Advance(5 * time.Millisecond)
		p.Advance(3 * time.Millisecond)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 8*time.Millisecond {
		t.Fatalf("end = %v, want 8ms", end)
	}
}

func TestParallelClocksIndependent(t *testing.T) {
	// Two procs each charging 1ms finish at t=1ms (unlimited cores).
	s := New()
	var ta, tb time.Duration
	s.Spawn("a", func(p *Proc) { p.Advance(time.Millisecond); ta = p.Now() })
	s.Spawn("b", func(p *Proc) { p.Advance(time.Millisecond); tb = p.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ta != time.Millisecond || tb != time.Millisecond {
		t.Fatalf("ta=%v tb=%v, want 1ms each", ta, tb)
	}
}

func TestVirtualTimeOrdering(t *testing.T) {
	// Events must be observed in virtual-time order across procs.
	s := New()
	var order []string
	s.Spawn("slow", func(p *Proc) {
		p.Advance(10 * time.Millisecond)
		order = append(order, "slow")
	})
	s.Spawn("fast", func(p *Proc) {
		p.Advance(1 * time.Millisecond)
		order = append(order, "fast")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("order = %v, want [fast slow]", order)
	}
}

func TestSleepWake(t *testing.T) {
	s := New()
	var wakeTime time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		tag := p.Sleep(7 * time.Millisecond)
		if tag != WakeNormal {
			t.Errorf("tag = %d, want WakeNormal", tag)
		}
		wakeTime = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wakeTime != 7*time.Millisecond {
		t.Fatalf("wakeTime = %v, want 7ms", wakeTime)
	}
}

func TestParkAndWakePropagatesClock(t *testing.T) {
	s := New()
	var sleeperTime time.Duration
	var sleeper *Proc
	sleeper = s.Spawn("sleeper", func(p *Proc) {
		tag := p.Park("test")
		if tag != 42 {
			t.Errorf("tag = %d, want 42", tag)
		}
		sleeperTime = p.Now()
	})
	s.Spawn("waker", func(p *Proc) {
		p.Advance(20 * time.Millisecond)
		if !p.Wake(sleeper, 42) {
			t.Error("Wake returned false")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sleeperTime != 20*time.Millisecond {
		t.Fatalf("sleeperTime = %v, want 20ms (waker's clock)", sleeperTime)
	}
}

func TestWakeDoesNotRewindClock(t *testing.T) {
	s := New()
	var got time.Duration
	var sleeper *Proc
	sleeper = s.Spawn("sleeper", func(p *Proc) {
		p.Advance(50 * time.Millisecond)
		p.Park("test")
		got = p.Now()
	})
	s.Spawn("waker", func(p *Proc) {
		p.Advance(60 * time.Millisecond) // ensure sleeper is parked by now
		p.Wake(sleeper, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 60*time.Millisecond {
		t.Fatalf("got = %v, want 60ms", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	s.Spawn("stuck", func(p *Proc) { p.Park("forever") })
	err := s.Run()
	dl, ok := err.(*ErrDeadlock)
	if !ok {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if len(dl.Parked) != 1 {
		t.Fatalf("parked = %v, want 1 entry", dl.Parked)
	}
}

func TestSpawnInheritsClock(t *testing.T) {
	s := New()
	var childStart time.Duration
	s.Spawn("parent", func(p *Proc) {
		p.Advance(4 * time.Millisecond)
		p.Sim().Spawn("child", func(c *Proc) {
			childStart = c.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childStart != 4*time.Millisecond {
		t.Fatalf("childStart = %v, want 4ms", childStart)
	}
}

func TestExitUnwindsAndRunsOnExit(t *testing.T) {
	s := New()
	ran := false
	reached := false
	s.Spawn("a", func(p *Proc) {
		p.OnExit(func(*Proc) { ran = true })
		p.Exit()
		reached = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("OnExit callback did not run")
	}
	if reached {
		t.Error("code after Exit ran")
	}
}

// TestExitAfterSwitchRunsOnExit exits a Proc that was switched out and
// back in: Exit unwinds through its Go defers, then the OnExit
// callbacks, and the other Proc runs on.
func TestExitAfterSwitchRunsOnExit(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("exiter", func(p *Proc) {
		p.OnExit(func(*Proc) { order = append(order, "onexit") })
		defer func() { order = append(order, "defer") }()
		p.Sleep(time.Millisecond)
		p.Exit()
		order = append(order, "after exit")
	})
	s.Spawn("other", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		order = append(order, "other")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"defer", "onexit", "other"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestNestedSim runs a second Sim to completion inside a Proc of the
// first, between switches of the first: one Sim's coroutines nest inside
// another's, and both keep their own virtual time.
func TestNestedSim(t *testing.T) {
	outer := New()
	var innerEnd, outerEnd time.Duration
	var host, peer *Proc
	host = outer.Spawn("host", func(p *Proc) {
		p.Advance(time.Millisecond)
		if err := pingPong(50); err != nil {
			t.Error(err)
		}
		inner := New()
		inner.Spawn("inner", func(q *Proc) {
			q.Sleep(time.Second)
			innerEnd = q.Now()
		})
		if err := inner.Run(); err != nil {
			t.Error(err)
		}
		p.Wake(peer, WakeNormal)
		p.Park("peer")
		outerEnd = p.Now()
	})
	peer = outer.Spawn("peer", func(p *Proc) {
		p.Park("host")
		p.Advance(time.Millisecond)
		p.Wake(host, WakeNormal)
	})
	if err := outer.Run(); err != nil {
		t.Fatal(err)
	}
	if innerEnd != time.Second || outerEnd != 2*time.Millisecond {
		t.Fatalf("inner ended at %v, outer at %v; want 1s and 2ms", innerEnd, outerEnd)
	}
}

func TestOnExitOrder(t *testing.T) {
	s := New()
	var order []int
	s.Spawn("a", func(p *Proc) {
		p.OnExit(func(*Proc) { order = append(order, 1) })
		p.OnExit(func(*Proc) { order = append(order, 2) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v, want [2 1] (reverse registration)", order)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := New()
	s.Spawn("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if r := recover(); r != `sim: proc "bad" panicked: boom` {
			t.Fatalf("Run panicked with %v, want the proc's panic", r)
		}
	}()
	s.Run()
}

// TestResumedProcPanicPropagates panics in a Proc that has been switched
// out and back in, with another Proc parked: Run still surfaces it under
// the Proc's name, and Close then releases the parked one.
func TestResumedProcPanicPropagates(t *testing.T) {
	s := New()
	defer s.Close()
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Advance(time.Millisecond)
		panic("late boom")
	})
	s.Spawn("waiter", func(p *Proc) { p.Park("forever") })
	defer func() {
		if r := recover(); r != `sim: proc "bad" panicked: late boom` {
			t.Fatalf("Run panicked with %v, want the resumed proc's panic", r)
		}
	}()
	s.Run()
}

func TestWaitQueueFIFO(t *testing.T) {
	s := New()
	q := NewWaitQueue("test")
	var order []string
	mk := func(name string, delay time.Duration) {
		s.Spawn(name, func(p *Proc) {
			p.Advance(delay)
			q.Wait(p)
			order = append(order, name)
		})
	}
	mk("first", 1*time.Millisecond)
	mk("second", 2*time.Millisecond)
	s.Spawn("waker", func(p *Proc) {
		p.Advance(10 * time.Millisecond)
		q.WakeOne(p, WakeNormal)
		p.Advance(time.Millisecond)
		q.WakeOne(p, WakeNormal)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
}

func TestWaitQueueTimeout(t *testing.T) {
	s := New()
	q := NewWaitQueue("test")
	var timedOut bool
	s.Spawn("waiter", func(p *Proc) {
		_, timedOut = q.WaitTimeout(p, 5*time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if q.Len() != 0 {
		t.Fatalf("queue still has %d waiters", q.Len())
	}
}

func TestWaitQueueWakeBeforeTimeout(t *testing.T) {
	s := New()
	q := NewWaitQueue("test")
	var timedOut bool
	var wokenAt time.Duration
	s.Spawn("waiter", func(p *Proc) {
		_, timedOut = q.WaitTimeout(p, 100*time.Millisecond)
		wokenAt = p.Now()
	})
	s.Spawn("waker", func(p *Proc) {
		p.Advance(3 * time.Millisecond)
		q.WakeOne(p, WakeNormal)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if timedOut {
		t.Fatal("should not have timed out")
	}
	if wokenAt != 3*time.Millisecond {
		t.Fatalf("wokenAt = %v, want 3ms", wokenAt)
	}
}

func TestWakeAll(t *testing.T) {
	s := New()
	q := NewWaitQueue("test")
	woken := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			q.Wait(p)
			woken++
		})
	}
	s.Spawn("waker", func(p *Proc) {
		p.Advance(time.Millisecond)
		if n := q.WakeAll(p, WakeNormal); n != 5 {
			t.Errorf("WakeAll = %d, want 5", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	// The same program must produce the same event trace every run.
	runOnce := func() []string {
		s := New()
		var trace []string
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			n := i
			s.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Advance(time.Duration(n+1) * time.Millisecond)
					trace = append(trace, name)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := runOnce()
	for i := 0; i < 5; i++ {
		got := runOnce()
		if len(got) != len(first) {
			t.Fatalf("trace length changed: %d vs %d", len(got), len(first))
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d diverged at %d: %v vs %v", i, j, got, first)
			}
		}
	}
}

func TestPingPongLatency(t *testing.T) {
	// Two procs bouncing wakeups model pipe latency: total time must be the
	// sum of per-hop costs.
	s := New()
	const hop = 10 * time.Microsecond
	const rounds = 100
	var a, b *Proc
	var final time.Duration
	a = s.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Advance(hop)
			p.Wake(b, WakeNormal)
			p.Park("pong")
		}
		final = p.Now()
		p.Wake(b, WakeInterrupted)
	})
	b = s.Spawn("b", func(p *Proc) {
		for {
			if p.Park("ping") == WakeInterrupted {
				return
			}
			p.Advance(hop)
			p.Wake(a, WakeNormal)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(2*rounds) * hop
	if final != want {
		t.Fatalf("final = %v, want %v", final, want)
	}
}

func TestDeadlockReport(t *testing.T) {
	s := New()
	s.Spawn("app", func(p *Proc) {
		p.Advance(3 * time.Millisecond)
		p.Park("waitq:port:5")
	})
	s.Spawn("worker", func(p *Proc) {
		p.Advance(7 * time.Millisecond)
		p.Park("waitq:sema:2")
	})
	s.Spawn("syslogd", func(p *Proc) {
		p.SetDaemon(true)
		p.Park("waitq:port:9")
	})
	err := s.Run()
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// Error() keeps its compact shape and excludes parked daemons.
	if dl.Error() != "sim: deadlock with 2 parked procs: [app(waitq:port:5) worker(waitq:sema:2)]" {
		t.Fatalf("Error() = %q", dl.Error())
	}
	// The snapshot covers every parked proc, daemons included, in id order.
	if len(dl.Procs) != 3 {
		t.Fatalf("Procs = %+v, want 3 entries", dl.Procs)
	}
	want := []ParkedProc{
		{Name: "app", ID: 0, Reason: "waitq:port:5", At: 3 * time.Millisecond},
		{Name: "worker", ID: 1, Reason: "waitq:sema:2", At: 7 * time.Millisecond},
		{Name: "syslogd", ID: 2, Reason: "waitq:port:9", At: 0, Daemon: true},
	}
	for i, w := range want {
		if dl.Procs[i] != w {
			t.Fatalf("Procs[%d] = %+v, want %+v", i, dl.Procs[i], w)
		}
	}
	report := dl.Report()
	for _, line := range []string{
		"sim: deadlock: 2 proc(s) parked with no possible waker\n",
		"  proc 0 \"app\" parked at 3ms waiting on waitq:port:5\n",
		"  proc 1 \"worker\" parked at 7ms waiting on waitq:sema:2\n",
		"  proc 2 \"syslogd\" [daemon] parked at 0s waiting on waitq:port:9\n",
	} {
		if !strings.Contains(report, line) {
			t.Fatalf("Report() = %q, missing %q", report, line)
		}
	}
}
