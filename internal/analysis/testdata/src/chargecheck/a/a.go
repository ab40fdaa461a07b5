// Fixture for chargecheck: every registered handler must charge on every
// return path; diplomat/dyld hops must charge somewhere in their body.
package a

import (
	"chargecheck/fault"
	"chargecheck/kernel"
)

// chargeAll charges indirectly; the may-charge fixpoint must see through it.
func chargeAll(t *kernel.Thread) {
	t.Charge(3)
}

// pidOf is pure: calling it does not count as charging.
func pidOf(t *kernel.Thread) uint64 { return uint64(t.PID()) }

// getpidFree is a named handler with an uncharged return path.
func getpidFree(t *kernel.Thread) kernel.SyscallRet {
	return kernel.SyscallRet{R0: pidOf(t)} // want `chargecheck: return path accrues no virtual-time cost`
}

func Install(tb *kernel.SyscallTable, hooks *kernel.Hooks, cb func()) {
	tb.Register(1, "charged", func(t *kernel.Thread) kernel.SyscallRet {
		t.Charge(10)
		return kernel.SyscallRet{R0: 1}
	})

	tb.Register(2, "free", func(t *kernel.Thread) kernel.SyscallRet {
		return kernel.SyscallRet{R0: pidOf(t)} // want `chargecheck: return path accrues no virtual-time cost`
	})

	tb.Register(3, "early-return", func(t *kernel.Thread) kernel.SyscallRet {
		if t.PID() == 0 {
			return kernel.SyscallRet{R0: 1} // want `chargecheck: return path accrues no virtual-time cost`
		}
		t.Charge(1)
		return kernel.SyscallRet{R0: 0}
	})

	// Bare errno rejections cost exactly the dispatcher's entry/exit
	// charges by design and are exempt.
	tb.Register(4, "reject", func(t *kernel.Thread) kernel.SyscallRet {
		if t.PID() == 0 {
			return kernel.SyscallRet{Errno: 22}
		}
		chargeAll(t)
		return kernel.SyscallRet{}
	})

	// ...but an errno combined with a result payload is real work and must
	// be charged.
	tb.Register(5, "partial", func(t *kernel.Thread) kernel.SyscallRet {
		return kernel.SyscallRet{R0: 1, Errno: 4} // want `chargecheck: return path accrues no virtual-time cost`
	})

	// Charging through a result expression counts.
	tb.Register(6, "inline", func(t *kernel.Thread) kernel.SyscallRet {
		return kernel.SyscallRet{R0: waitFor(t)}
	})

	// Calls through function values may charge; the analysis is optimistic
	// about them.
	tb.Register(7, "dynamic", func(t *kernel.Thread) kernel.SyscallRet {
		cb()
		return kernel.SyscallRet{R0: 0}
	})

	// A registered named handler is resolved to its declaration.
	tb.Register(8, "named", getpidFree)

	// A deliberately free syscall carries a justified allow directive.
	tb.Register(9, "getpid", func(t *kernel.Thread) kernel.SyscallRet {
		//lint:allow chargecheck: pid is served from the cached persona, no modeled cost
		return kernel.SyscallRet{R0: pidOf(t)}
	})

	// Fault-injection sites are charge seeds: the consult-and-apply
	// contract means an injected early-errno return has paid its modeled
	// cost through the consult, so this path is not flagged.
	in := &fault.Injector{}
	tb.Register(10, "injected", func(t *kernel.Thread) kernel.SyscallRet {
		if out, ok := in.Check(1, "a/injected", 0); ok {
			return kernel.SyscallRet{R0: ^uint64(0), Errno: kernel.Errno(out.Errno)}
		}
		t.Charge(1)
		return kernel.SyscallRet{}
	})

	// Interrupt (the park-point consult) seeds the same way through the
	// may-charge fixpoint.
	tb.Register(11, "interrupted", func(t *kernel.Thread) kernel.SyscallRet {
		if in.Interrupt(0, "waitq:pipe") {
			return kernel.SyscallRet{R0: 1, Errno: 4}
		}
		t.Charge(1)
		return kernel.SyscallRet{}
	})

	// Crash consults seed the same way: the dispatcher's pre-handler
	// crash check pays the injected fault's modeled cost at the consult.
	tb.Register(12, "crash-checked", func(t *kernel.Thread) kernel.SyscallRet {
		if out, ok := in.Crash(0, "/bin/x"); ok {
			return kernel.SyscallRet{R0: 2, Errno: kernel.Errno(out.Errno)}
		}
		t.Charge(1)
		return kernel.SyscallRet{}
	})

	hooks.AtExit(func(t *kernel.Thread) {
		t.Charge(2)
	})
	hooks.AtExit(func(t *kernel.Thread) { // want `chargecheck: dyld AtExit hook accrues no virtual-time cost`
		_ = pidOf(t)
	})
}

func waitFor(t *kernel.Thread) uint64 {
	t.Proc().Advance(5)
	return 1
}

// Memory-pressure handlers are hops: delivery runs in the context of
// whichever thread crossed the watermark, and the runtime's dispatch cost
// must be charged there.
func InstallPressure(ms *kernel.Memorystatus, tk *kernel.Task, t *kernel.Thread) {
	ms.OnPressure(tk, func(level int) {
		t.Charge(2) // delivery cost: clean
	})
	ms.OnPressure(tk, func(level int) { // want `chargecheck: memory-pressure handler accrues no virtual-time cost`
		_ = pidOf(t)
	})
}

// Engine mimics the diplomat: Wrap-returned closures are hops and must
// accrue cost somewhere in their body.
type Engine struct{ calls int }

func (e *Engine) Wrap(t *kernel.Thread, f func()) func() {
	if e.calls == 0 {
		return func() { // want `chargecheck: diplomat hop accrues no virtual-time cost`
			e.calls++
		}
	}
	return func() {
		t.Charge(1)
		f()
	}
}

// Exception bridges are hops: a bridge that delivers (or declines) an
// exception without accruing the exception-message cost skews the modeled
// crash latencies.
func InstallBridges(k *kernel.Kernel) {
	k.SetExceptionBridge(func(t *kernel.Thread, sig int) bool {
		t.Charge(4)
		return true
	})
	k.SetExceptionBridge(func(t *kernel.Thread, sig int) bool { // want `chargecheck: exception bridge accrues no virtual-time cost`
		return sig == 11
	})
}

// A table built from a definition list registers through SyscallDef
// literals: their handlers are checked the same way, positional or keyed.
var defTable = kernel.NewSyscallTable([]kernel.SyscallDef{
	{Num: 20, Name: "def-charged", H: func(t *kernel.Thread) kernel.SyscallRet {
		t.Charge(1)
		return kernel.SyscallRet{R0: 1}
	}},
	{Num: 21, Name: "def-free", H: func(t *kernel.Thread) kernel.SyscallRet {
		return kernel.SyscallRet{R0: pidOf(t)} // want `chargecheck: return path accrues no virtual-time cost`
	}},
	{Num: 22, Name: "def-named", H: getpidFree},
}...)
