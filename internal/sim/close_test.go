package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/runner"
)

// countSink counts the scheduler events it receives.
type countSink struct{ n int }

func (c *countSink) SchedEvent(SchedEvent, string, int, time.Duration, string) { c.n++ }

// waitGoroutines fails the test unless at most want goroutines remain
// after a bounded wait.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	if err := runner.AwaitGoroutines(want, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCloseReleasesProcs leaves every kind of unfinished Proc behind —
// parked and sleeping daemons, a Proc spawned but never scheduled, a
// daemon whose deferred calls re-enter the simulator, and a non-daemon
// stuck in an ErrDeadlock — and checks that Close ends all of their
// goroutines without running exit callbacks or emitting events.
func TestCloseReleasesProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	exits := 0
	onExit := func(*Proc) { exits++ }

	idle, idleSink := New(), &countSink{}
	idle.SetSink(idleSink)
	var waker *Proc
	var deferStarted, deferFinished bool
	idle.Spawn("reentrant-daemon", func(p *Proc) {
		p.SetDaemon(true)
		p.OnExit(onExit)
		defer func() {
			// Blocking again during the unwind must unwind further,
			// not hang Close.
			deferStarted = true
			p.Advance(time.Millisecond)
			p.Sleep(time.Millisecond)
			deferFinished = true
		}()
		// Waking a Proc Close has not reached yet must not lose it.
		defer p.Wake(waker, WakeNormal)
		p.Park("forever")
	})
	waker = idle.Spawn("parked-daemon", func(p *Proc) {
		p.SetDaemon(true)
		p.OnExit(onExit)
		p.Park("forever")
	})
	idle.Spawn("sleeping-daemon", func(p *Proc) {
		p.SetDaemon(true)
		p.OnExit(onExit)
		p.Sleep(time.Hour)
	})
	idle.Spawn("main", func(p *Proc) {
		p.OnExit(onExit)
		p.Advance(time.Millisecond)
		never := p.Sim().Spawn("never-run", func(*Proc) { t.Error("never-run ran") })
		never.SetDaemon(true)
		never.OnExit(onExit)
	})
	if err := idle.Run(); err != nil {
		t.Fatal(err)
	}

	stuck := New()
	stuck.Spawn("blocked", func(p *Proc) {
		p.OnExit(onExit)
		p.Park("nobody")
	})
	var dl *ErrDeadlock
	if err := stuck.Run(); !errors.As(err, &dl) {
		t.Fatalf("stuck.Run() = %v, want ErrDeadlock", err)
	}

	// Four idle Procs and the stuck one outlive Run; main's goroutine
	// may still be on its way out.
	waitGoroutines(t, base+5)
	if got := runtime.NumGoroutine() - base; got != 5 {
		t.Fatalf("%d goroutines outlive Run, want 5", got)
	}
	exits = 0 // main exited normally
	events := idleSink.n
	idle.Close()
	stuck.Close()
	waitGoroutines(t, base)

	if exits != 0 {
		t.Errorf("Close ran %d OnExit callbacks, want 0", exits)
	}
	if idleSink.n != events {
		t.Errorf("sink saw %d events after Close", idleSink.n-events)
	}
	if !deferStarted || deferFinished {
		t.Errorf("reentrant defer: started=%v finished=%v, want true/false", deferStarted, deferFinished)
	}
	if waker.State() != StateDone {
		t.Errorf("woken daemon state %v, want done", waker.State())
	}

	idle.Close() // a second Close is a no-op
	waitGoroutines(t, base)
	if err := idle.Run(); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close = %v, want ErrClosed", err)
	}
	func() {
		defer func() {
			if r := recover(); r != ErrClosed {
				t.Errorf("Spawn after Close panicked with %v, want ErrClosed", r)
			}
		}()
		idle.Spawn("late", func(*Proc) {})
	}()
}
