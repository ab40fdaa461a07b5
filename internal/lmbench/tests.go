package lmbench

import (
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/posix"
	"repro/internal/prog"
)

// wrap turns a driver body into a program entry.
func wrap(body func(t *kernel.Thread)) prog.Func {
	return func(c *prog.Call) uint64 {
		body(c.Ctx.(*kernel.Thread))
		return 0
	}
}

// helloBody is the "hello world" payload of the exec tests.
func helloBody(c *prog.Call) uint64 {
	th := c.Ctx.(*kernel.Thread)
	// printf("hello world\n") worth of work.
	th.Charge(th.Kernel().Device().CPU.Cycles(5200))
	return 0
}

// AllTests returns the full Fig. 5 test battery in figure order.
func AllTests() []Test {
	return []Test{
		// ---- Basic CPU operations -------------------------------------
		basicOp("int mul", hw.OpIntMul),
		basicOp("int div", hw.OpIntDiv),
		basicOp("double add", hw.OpFloatAdd),
		basicOp("double mul", hw.OpFloatMul),
		{Name: "double bogomflops", Group: "basic", run: func(c *ctx) (time.Duration, bool) {
			// lmbench's bogomflops kernel: a[i] = a[i] * b[i] + c per
			// element, memory resident.
			const n = 10000
			lat := measure(c, 4, func() {
				c.compute(hw.OpLoad, 2*n)
				c.compute(hw.OpFloatMul, n)
				c.compute(hw.OpFloatAdd, n)
				c.compute(hw.OpStore, n)
			})
			return lat / n, true
		}},

		// ---- Syscalls and signals -------------------------------------
		{Name: "null syscall", Group: "syscall", run: func(c *ctx) (time.Duration, bool) {
			return measure(c, 256, func() { c.lc.GetPPID() }), true
		}},
		{Name: "read", Group: "syscall", run: func(c *ctx) (time.Duration, bool) {
			fd, errno := c.lc.Open("/dev/zero")
			if errno != kernel.OK {
				return 0, false
			}
			buf := make([]byte, 1)
			lat := measure(c, iters, func() { c.lc.Read(fd, buf) })
			c.lc.Close(fd)
			return lat, true
		}},
		{Name: "write", Group: "syscall", run: func(c *ctx) (time.Duration, bool) {
			fd, errno := c.lc.Open("/dev/null")
			if errno != kernel.OK {
				return 0, false
			}
			one := []byte{0}
			lat := measure(c, iters, func() { c.lc.Write(fd, one) })
			c.lc.Close(fd)
			return lat, true
		}},
		{Name: "open/close", Group: "syscall", run: func(c *ctx) (time.Duration, bool) {
			if fd, errno := c.lc.Creat("/tmp/lmbench.f"); errno == kernel.OK {
				c.lc.Close(fd)
			} else {
				return 0, false
			}
			lat := measure(c, iters, func() {
				fd, _ := c.lc.Open("/tmp/lmbench.f")
				c.lc.Close(fd)
			})
			c.lc.Unlink("/tmp/lmbench.f")
			return lat, true
		}},
		{Name: "signal handler", Group: "syscall", run: func(c *ctx) (time.Duration, bool) {
			fired := 0
			if errno := c.lc.Sigaction(kernel.SIGUSR1, func(int) { fired++ }); errno != kernel.OK {
				return 0, false
			}
			pid := c.lc.GetPID()
			lat := measure(c, iters, func() { c.lc.Kill(pid, kernel.SIGUSR1) })
			if fired == 0 {
				return 0, false
			}
			return lat, true
		}},

		// ---- Process creation -----------------------------------------
		{Name: "fork+exit", Group: "proc", run: func(c *ctx) (time.Duration, bool) {
			return measure(c, 8, func() {
				pid := c.lc.Fork(func(cc posix.Libc) { cc.Exit(0) })
				c.lc.Wait(pid)
			}), true
		}},
		forkExec("fork+exec(android)", "", helloLinux),
		forkExec("fork+exec(ios)", "fork+exec(android)", helloIOS),
		forkSh("fork+sh(android)", "", "/system/bin/sh", helloLinux),
		forkSh("fork+sh(ios)", "fork+sh(android)", "/bin/sh", helloIOS),

		// ---- Local communication and file operations ------------------
		{Name: "pipe", Group: "comm", run: func(c *ctx) (time.Duration, bool) {
			return pingPong(c, false)
		}},
		{Name: "AF_UNIX", Group: "comm", run: func(c *ctx) (time.Duration, bool) {
			return pingPong(c, true)
		}},
		selectN("select 10", 10),
		selectN("select 100", 100),
		selectN("select 250", 250),
		fileTest("0KB create", 0, false),
		fileTest("0KB delete", 0, true),
		fileTest("10KB create", 10<<10, false),
		fileTest("10KB delete", 10<<10, true),
	}
}

func basicOp(name string, op hw.CPUOp) Test {
	return Test{Name: name, Group: "basic", run: func(c *ctx) (time.Duration, bool) {
		const n = 50000
		lat := measure(c, 4, func() { c.compute(op, n) })
		return lat / n, true
	}}
}

func forkExec(name, base, path string) Test {
	return Test{Name: name, Group: "proc", Base: base, run: func(c *ctx) (time.Duration, bool) {
		ok := true
		lat := measure(c, 8, func() {
			pid := c.lc.Fork(func(cc posix.Libc) {
				cc.Exec(path, nil)
				cc.Exit(127)
			})
			_, status, _ := c.lc.Wait(pid)
			if status != 0 {
				ok = false
			}
		})
		return lat, ok
	}}
}

// forkSh launches the named shell to run the target binary: the (android)
// variant uses the Android shell and Linux payload, the (ios) variant the
// iOS shell and Mach-O payload, whichever binary drives the test.
func forkSh(name, base, sh, path string) Test {
	return Test{Name: name, Group: "proc", Base: base, run: func(c *ctx) (time.Duration, bool) {
		ok := true
		lat := measure(c, 4, func() {
			pid := c.lc.Fork(func(cc posix.Libc) {
				cc.Exec(sh, []string{"-c", path})
				cc.Exit(127)
			})
			_, status, _ := c.lc.Wait(pid)
			if status != 0 {
				ok = false
			}
		})
		return lat, ok
	}}
}

// pingPong measures one-way latency through a pipe or AF_UNIX socket:
// lmbench's lat_pipe / lat_unix "hot potato" between two processes. Like
// the real lat_pipe, every transfer is checked and a failed syscall
// aborts the measurement: silently dropping one leg of the ping-pong
// (an injected EINTR or EAGAIN under the soak's fault schedules) would
// otherwise park both processes forever. On abort the parent still
// closes its write end so the child sees EOF and exits.
func pingPong(c *ctx, unix bool) (time.Duration, bool) {
	const rounds = 32
	one := []byte{1}
	buf := make([]byte, 1)
	if unix {
		a, b, errno := c.lc.Socketpair()
		if errno != kernel.OK {
			return 0, false
		}
		pid := c.lc.Fork(func(cc posix.Libc) {
			cc.Close(a) // drop the inherited far end
			bb := make([]byte, 1)
			for {
				n, e := cc.Read(b, bb)
				if n == 0 {
					cc.Exit(0)
				}
				if n < 0 || e != kernel.OK {
					cc.Exit(1)
				}
				if n, e = cc.Write(b, bb); n != 1 || e != kernel.OK {
					cc.Exit(1)
				}
			}
		})
		c.lc.Close(b)
		ok := true
		start := c.t.Now()
		for i := 0; i < rounds; i++ {
			if n, e := c.lc.Write(a, one); n != 1 || e != kernel.OK {
				ok = false
				break
			}
			if n, e := c.lc.Read(a, buf); n != 1 || e != kernel.OK {
				ok = false
				break
			}
		}
		rtt := (c.t.Now() - start) / rounds
		c.lc.Close(a)
		c.lc.Wait(pid)
		return rtt / 2, ok
	}
	// Pipes are unidirectional: one per direction.
	r1, w1, errno := c.lc.Pipe()
	if errno != kernel.OK {
		return 0, false
	}
	r2, w2, errno := c.lc.Pipe()
	if errno != kernel.OK {
		return 0, false
	}
	pid := c.lc.Fork(func(cc posix.Libc) {
		// Close the inherited ends the child does not use, so EOF works.
		cc.Close(w1)
		cc.Close(r2)
		b := make([]byte, 1)
		for {
			n, e := cc.Read(r1, b)
			if n == 0 {
				cc.Exit(0)
			}
			if n < 0 || e != kernel.OK {
				cc.Exit(1)
			}
			if n, e = cc.Write(w2, b); n != 1 || e != kernel.OK {
				cc.Exit(1)
			}
		}
	})
	c.lc.Close(r1)
	c.lc.Close(w2)
	ok := true
	start := c.t.Now()
	for i := 0; i < rounds; i++ {
		if n, e := c.lc.Write(w1, one); n != 1 || e != kernel.OK {
			ok = false
			break
		}
		if n, e := c.lc.Read(r2, buf); n != 1 || e != kernel.OK {
			ok = false
			break
		}
	}
	rtt := (c.t.Now() - start) / rounds
	c.lc.Close(w1)
	c.lc.Wait(pid)
	return rtt / 2, ok
}

func selectN(name string, n int) Test {
	return Test{Name: name, Group: "comm", run: func(c *ctx) (time.Duration, bool) {
		fds := make([]int, 0, n)
		for i := 0; i < n; i++ {
			fd, errno := c.lc.Open("/dev/zero")
			if errno != kernel.OK {
				return 0, false
			}
			fds = append(fds, fd)
		}
		ok := true
		lat := measure(c, iters, func() {
			if _, errno := c.lc.Select(&kernel.SelectRequest{ReadFDs: fds, Timeout: 0}); errno != kernel.OK {
				ok = false
			}
		})
		for _, fd := range fds {
			c.lc.Close(fd)
		}
		if !ok {
			// "The test simply failed to complete for 250 file
			// descriptors" on the iPad.
			return 0, false
		}
		return lat, true
	}}
}

func fileTest(name string, size int, del bool) Test {
	return Test{Name: name, Group: "comm", run: func(c *ctx) (time.Duration, bool) {
		payload := make([]byte, size)
		ok := true
		var lat time.Duration
		if del {
			// Time only the unlink; the create between samples is setup.
			var total time.Duration
			for i := 0; i < iters; i++ {
				fd, errno := c.lc.Creat("/tmp/lm.tmp")
				if errno != kernel.OK {
					return 0, false
				}
				if size > 0 {
					c.lc.Write(fd, payload)
				}
				c.lc.Close(fd)
				start := c.t.Now()
				c.lc.Unlink("/tmp/lm.tmp")
				total += c.t.Now() - start
			}
			lat = total / iters
		} else {
			lat = measure(c, iters, func() {
				fd, errno := c.lc.Creat("/tmp/lm.tmp")
				if errno != kernel.OK {
					ok = false
					return
				}
				if size > 0 {
					c.lc.Write(fd, payload)
				}
				c.lc.Close(fd)
			})
			c.lc.Unlink("/tmp/lm.tmp")
		}
		return lat, ok
	}}
}
