//go:build !race

package core

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/persona"
)

// TestSyscallArgsAllocs pins traps that carry arguments at zero heap
// allocations: Thread.Syscall copies the caller's SyscallArgs into the
// thread's slot for the nesting level, so the libc wrappers' argument
// structs stay on their stacks. The race runtime allocates on its own
// account, so this file is left out of -race builds and `make verify`
// runs the test in its switch-allocs step.
func TestSyscallArgsAllocs(t *testing.T) {
	for _, k := range []persona.Kind{persona.Android, persona.IOS} {
		inProc(t, k, func(th *kernel.Thread) {
			op, err := writeClose(k, th)
			if err != nil {
				t.Error(err)
				return
			}
			got := testing.AllocsPerRun(100, func() {
				if err := op(); err != nil {
					t.Error(err)
				}
			})
			if got != 0 {
				t.Errorf("%v: write + dup/close allocated %v objects, want 0", k, got)
			}
		})
	}
}

// TestDiplomatHopAllocs pins one diplomatic GL call on a booted Cider
// system at zero heap allocations: the set_persona traps use the argument
// slots, and GL.Call and the diplomat's direct invocation use the
// thread's call frames.
func TestDiplomatHopAllocs(t *testing.T) {
	inProc(t, persona.IOS, func(th *kernel.Thread) {
		op, err := glHop(th)
		if err != nil {
			t.Error(err)
			return
		}
		if got := testing.AllocsPerRun(100, op); got != 0 {
			t.Errorf("diplomatic GL call allocated %v objects, want 0", got)
		}
	})
}

// TestMachRoundTripAllocs pins a libSystem self send+receive on a booted
// Cider system at its two message buffers: each mach_msg trap passes its
// MsgCarrier in the argument slot, not under a per-thread user-data key
// built with Sprintf (10 allocations per round trip before).
func TestMachRoundTripAllocs(t *testing.T) {
	const machRoundTripAllocs = 2
	inProc(t, persona.IOS, func(th *kernel.Thread) {
		op, err := machRoundTrip(th)
		if err != nil {
			t.Error(err)
			return
		}
		got := testing.AllocsPerRun(100, func() {
			if err := op(); err != nil {
				t.Error(err)
			}
		})
		if got > machRoundTripAllocs {
			t.Errorf("mach self round trip allocated %v objects, want <= %d", got, machRoundTripAllocs)
		}
	})
}
