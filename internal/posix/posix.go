// Package posix is the one persona-neutral C-library surface the
// benchmark and oracle harnesses write their program bodies against. The
// paper compiles each Fig. 5/6 benchmark twice, once against Bionic and
// once against libSystem; here one body runs against Libc, and New picks
// the adapter for the persona the binary was built for.
//
// Libc speaks canonical (Linux) numbering. The Android adapter passes
// bionic's calls through unchanged, since Bionic already speaks it. The
// iOS adapter is the single place where a program's view of libSystem is
// canonicalized: signal numbers, rlimit resources, the TLS errno and the
// memory-pressure vocabulary. The traps themselves are libSystem's, so
// the iOS persona still pays its XNU translation costs in the kernel.
package posix

import (
	"repro/internal/bionic"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/persona"
)

// Memory-pressure levels as OnPressure reports them, whichever persona
// vocabulary (onTrimMemory levels, dispatch-source flags) delivered them.
const (
	PressureWarn     = "warn"
	PressureCritical = "critical"
)

// Libc is a thread's C library in canonical numbering.
type Libc interface {
	// Fork forks; the child runs child with its own Libc. It returns the
	// child's pid, or -1 on failure.
	Fork(child func(Libc)) int
	Exit(status int)
	Exec(path string, argv []string) kernel.Errno
	// Wait reaps a child, returning (pid, status).
	Wait(pid int) (int, int, kernel.Errno)
	Open(path string) (int, kernel.Errno)
	// OpenCreate opens path, creating it if absent (open with O_CREAT).
	OpenCreate(path string) (int, kernel.Errno)
	Creat(path string) (int, kernel.Errno)
	Dup(fd int) (int, kernel.Errno)
	Close(fd int) kernel.Errno
	Read(fd int, buf []byte) (int, kernel.Errno)
	Write(fd int, buf []byte) (int, kernel.Errno)
	Unlink(path string) kernel.Errno
	// Pipe returns (readFD, writeFD).
	Pipe() (int, int, kernel.Errno)
	Socketpair() (int, int, kernel.Errno)
	Select(req *kernel.SelectRequest) (*kernel.SelectResult, kernel.Errno)
	GetPID() int
	GetPPID() int
	// Kill sends a canonical-numbered signal to pid.
	Kill(pid, sig int) kernel.Errno
	// Sigaction installs a handler for a canonical-numbered signal; fn
	// receives the delivered signal's canonical number.
	Sigaction(sig int, fn func(sig int)) kernel.Errno
	// Getrlimit reads a canonical-numbered resource limit.
	Getrlimit(res int) (cur, max uint64, errno kernel.Errno)
	// Setrlimit sets a canonical-numbered resource limit.
	Setrlimit(res int, cur, max uint64) kernel.Errno
	// OnPressure registers a memory-pressure listener for the calling
	// process; fn receives PressureWarn or PressureCritical.
	OnPressure(fn func(level string))
	// Errno reads the persona TLS errno as a canonical number.
	Errno() int
}

// New returns t's C library for a binary built for persona k: bionic for
// Android, libSystem for iOS.
func New(k persona.Kind, t *kernel.Thread) Libc {
	if k == persona.IOS {
		return darwin{libsystem.Sys(t)}
	}
	return android{bionic.Sys(t)}
}

// android adapts bionic, whose numbering is already canonical.
type android struct{ *bionic.C }

func (a android) Fork(child func(Libc)) int {
	return a.C.Fork(func(cc *bionic.C) { child(android{cc}) })
}

func (a android) Sigaction(sig int, fn func(int)) kernel.Errno {
	return a.C.Sigaction(sig, func(_ *kernel.Thread, got int) { fn(got) })
}

func (a android) OnPressure(fn func(string)) {
	a.C.OnTrimMemory(func(level int) {
		if level == bionic.TrimMemoryRunningCritical {
			fn(PressureCritical)
		} else {
			fn(PressureWarn)
		}
	})
}

// darwin adapts libSystem: BSD errnos, XNU signal numbers, XNU rlimit
// resources and dispatch-source pressure flags are converted here, the
// way a harness comparing ktrace streams from real devices would.
type darwin struct{ *libsystem.C }

func (d darwin) Fork(child func(Libc)) int {
	return d.C.Fork(func(cc *libsystem.C) { child(darwin{cc}) })
}

func (d darwin) Kill(pid, sig int) kernel.Errno {
	return d.C.Kill(pid, kernel.SignalToXNU(sig))
}

func (d darwin) Sigaction(sig int, fn func(int)) kernel.Errno {
	return d.C.Sigaction(kernel.SignalToXNU(sig), func(_ *kernel.Thread, got int) {
		fn(kernel.SignalFromXNU(got))
	})
}

func (d darwin) Getrlimit(res int) (uint64, uint64, kernel.Errno) {
	return d.C.Getrlimit(kernel.RlimitToXNU(res))
}

func (d darwin) Setrlimit(res int, cur, max uint64) kernel.Errno {
	return d.C.Setrlimit(kernel.RlimitToXNU(res), cur, max)
}

func (d darwin) OnPressure(fn func(string)) {
	d.C.DispatchSourceMemoryPressure(func(flags int) {
		if flags == libsystem.DispatchMemoryPressureCritical {
			fn(PressureCritical)
		} else {
			fn(PressureWarn)
		}
	})
}

func (d darwin) Errno() int { return int(kernel.ErrnoFromXNU(d.C.Errno())) }
