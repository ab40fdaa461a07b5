package kernel

import (
	"slices"
	"testing"
	"time"

	"repro/internal/persona"
	"repro/internal/prog"
)

// spyOn replaces num's handler in the Linux table with one that hands
// the handler's argument slot to seen before running the original.
func spyOn(t *testing.T, e *testEnv, num int, seen func(a *SyscallArgs)) {
	t.Helper()
	tb := e.k.SyscallTableFor(persona.Android)
	h, ok := tb.Lookup(num)
	if !ok {
		t.Fatalf("no handler for %d", num)
	}
	tb.Register(num, tb.NameOf(num), func(th *Thread, a *SyscallArgs) SyscallRet {
		seen(a)
		return h(th, a)
	})
}

// TestSlotPerLevelSignalOnReadReturn: a signal handler that traps on the
// return path of an interrupted blocking read runs one level deeper than
// the read, so the read's argument slot still holds the read's arguments
// while the handler's write runs.
func TestSlotPerLevelSignalOnReadReturn(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var readArgs *SyscallArgs
	spyOn(t, e, SysRead, func(a *SyscallArgs) {
		if readArgs == nil {
			readArgs = a
		}
	})
	buf := make([]byte, 8)
	var rfd, wfd uint64
	var inHandler, readErrno, got Errno
	var echoed string
	e.install(t, "/bin/sigread", "sigread", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		// Take descriptor 0 first, so the read's fd is not the zero value.
		th.Syscall(SysOpen, &SyscallArgs{Path: "/dev/null"})
		p := th.Syscall(SysPipe, nil)
		rfd, wfd = p.R0, p.R1
		th.Syscall(SysRtSigaction, &SyscallArgs{
			I: [6]uint64{SIGUSR1},
			Act: &SigAction{Handler: func(ht *Thread, sig int) {
				inHandler = ht.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{wfd}, Buf: []byte("hi")}).Errno
				if readArgs == nil || readArgs.I[0] != rfd || len(readArgs.Buf) != len(buf) || &readArgs.Buf[0] != &buf[0] {
					t.Errorf("read's slot during the handler's write = %+v, want fd %d and the caller's buffer", readArgs, rfd)
				}
			}},
		})
		pid := th.Syscall(SysGetpid, nil).R0
		th.Syscall(SysFork, &SyscallArgs{ChildFn: func(ct *Thread) {
			ct.Charge(time.Millisecond)
			ct.Syscall(SysKill, &SyscallArgs{I: [6]uint64{pid, SIGUSR1}})
		}})
		readErrno = th.Syscall(SysRead, &SyscallArgs{I: [6]uint64{rfd}, Buf: buf}).Errno
		r := th.Syscall(SysRead, &SyscallArgs{I: [6]uint64{rfd}, Buf: buf})
		got, echoed = r.Errno, string(buf[:r.R0])
		return 0
	})
	e.run(t, "/bin/sigread", nil)
	if readErrno != EINTR {
		t.Fatalf("interrupted read = %v, want EINTR", readErrno)
	}
	if inHandler != OK || got != OK || echoed != "hi" {
		t.Fatalf("handler's write = %v, read back %q (%v), want OK and \"hi\"", inHandler, echoed, got)
	}
}

// TestSlotPerLevelExec: a successful execve runs the new image inside its
// handler, so the image's traps take the next level and the execve's
// slot keeps its path and argv for the image's whole life.
func TestSlotPerLevelExec(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	var execArgs *SyscallArgs
	spyOn(t, e, SysExecve, func(a *SyscallArgs) { execArgs = a })
	argv := []string{"inner", "x"}
	var depth int
	var ppidErrno Errno
	e.install(t, "/bin/inner", "inner", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		depth = th.sysArgs.depth
		ppidErrno = th.Syscall(SysGetppid, &SyscallArgs{
			I: [6]uint64{7, 7, 7, 7, 7, 7}, Path: "/elsewhere", Argv: []string{"other"},
		}).Errno
		if execArgs == nil || execArgs.Path != "/bin/inner" || !slices.Equal(execArgs.Argv, argv) {
			t.Errorf("execve's slot after the image's trap = %+v, want /bin/inner %q", execArgs, argv)
		}
		return 0
	})
	e.install(t, "/bin/outer", "outer", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		th.Syscall(SysExecve, &SyscallArgs{Path: "/bin/inner", Argv: argv})
		t.Error("execve returned")
		return 1
	})
	e.run(t, "/bin/outer", nil)
	if depth != 1 {
		t.Fatalf("new image runs at slot depth %d, want 1 (inside the execve)", depth)
	}
	if ppidErrno != OK {
		t.Fatalf("getppid in the new image = %v", ppidErrno)
	}
}

// TestSlotReleasedOnReturn: a trap that returns leaves its level free and
// its slot cleared, so the slot keeps no caller buffer alive.
func TestSlotReleasedOnReturn(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	e.install(t, "/bin/ret", "ret", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		th.Syscall(SysWrite, &SyscallArgs{I: [6]uint64{99}, Buf: make([]byte, 4), Path: "p"})
		if th.sysArgs.depth != 0 {
			t.Errorf("depth after return = %d, want 0", th.sysArgs.depth)
		}
		if a := th.sysArgs.first; a.I != [6]uint64{} || a.Path != "" || a.Buf != nil {
			t.Errorf("slot after return = %+v, want zero", a)
		}
		return 0
	})
	e.run(t, "/bin/ret", nil)
}

// TestFramePerLevel: a function called through CallFunc that calls
// another runs it in the next frame, so its own Call and arguments stay
// intact; a call with more arguments than a frame holds inline gets them
// all.
func TestFramePerLevel(t *testing.T) {
	e := newEnv(t, ProfileLinuxVanilla)
	many := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	var inner []uint64
	innerFn := func(c *prog.Call) uint64 {
		inner = slices.Clone(c.Args)
		return c.Arg(0) + c.Arg(11)
	}
	e.install(t, "/bin/frames", "frames", func(c *prog.Call) uint64 {
		th := c.Ctx.(*Thread)
		ret := th.CallFunc(func(oc *prog.Call) uint64 {
			r := th.CallFunc(innerFn, many)
			if oc.Ctx != th || !slices.Equal(oc.Args, []uint64{40, 2}) {
				t.Errorf("outer frame after the inner call = %v %v, want the thread and [40 2]", oc.Ctx, oc.Args)
			}
			return r + oc.Arg(0) + oc.Arg(1)
		}, []uint64{40, 2})
		if ret != 1+12+40+2 {
			t.Errorf("CallFunc = %d, want %d", ret, 1+12+40+2)
		}
		if th.frames.depth != 0 {
			t.Errorf("frame depth after return = %d, want 0", th.frames.depth)
		}
		return 0
	})
	e.run(t, "/bin/frames", nil)
	if !slices.Equal(inner, many) {
		t.Fatalf("inner call saw %v, want %v", inner, many)
	}
}
