package abi

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
)

// TestTranslatorsLeaveCallerArgs: the XNU translators renumber their
// arguments in the kernel's copy (the thread's argument slot), never in
// the caller's struct, so a caller that reuses its arguments sees what it
// passed.
func TestTranslatorsLeaveCallerArgs(t *testing.T) {
	e := newEnv(t, kernel.ProfileCider)
	calls := []struct {
		num  int
		name string
		a    kernel.SyscallArgs
	}{
		{XNUGetrlimit, "getrlimit", kernel.SyscallArgs{I: [6]uint64{XNURLimitNoFile}}},
		{XNUSetrlimit, "setrlimit", kernel.SyscallArgs{I: [6]uint64{XNURLimitNoFile, 128, 2048}}},
		{XNUSigaction, "sigaction", kernel.SyscallArgs{I: [6]uint64{30}, Act: &kernel.SigAction{Handler: func(*kernel.Thread, int) {}}}},
		{XNUKill, "kill", kernel.SyscallArgs{I: [6]uint64{0, 30}}},
		{XNUOpen, "open", kernel.SyscallArgs{I: [6]uint64{0, XNUOCreat | 2}, Path: "/tmp-slot"}},
	}
	e.runIOS(t, func(th *kernel.Thread) {
		for _, c := range calls {
			a := c.a
			if c.num == XNUKill {
				a.I[0] = uint64(th.Task().PID())
			}
			want := a.I
			if r := th.Syscall(c.num, &a); r.Errno != kernel.OK {
				t.Errorf("%s = %v", c.name, r.Errno)
			}
			if a.I != want {
				t.Errorf("%s rewrote the caller's arguments: %v, want %v", c.name, a.I, want)
			}
		}
	})
}

// TestNilArgsTrapsInParallelSims runs two Cider kernels at once, each
// trapping XNU getrlimit with nil arguments. The translator renumbers its
// argument in place, so a nil-args trap must get a slot of its own
// thread, not a zero value shared by every kernel in the process (run
// under -race, a shared one is a data race).
func TestNilArgsTrapsInParallelSims(t *testing.T) {
	for i := range 2 {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel()
			e := newEnv(t, kernel.ProfileCider)
			var first kernel.SyscallRet
			e.runIOS(t, func(th *kernel.Thread) {
				first = th.Syscall(XNUGetrlimit, nil)
				for range 200 {
					if r := th.Syscall(XNUGetrlimit, nil); r != first {
						t.Errorf("getrlimit(nil) = %+v, then %+v", first, r)
						return
					}
				}
			})
			if first.Errno != kernel.OK {
				t.Fatalf("getrlimit(nil) = %v", first.Errno)
			}
		})
	}
}
