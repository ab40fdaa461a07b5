package core

import (
	"fmt"
	"testing"

	"repro/internal/graphics"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/persona"
	"repro/internal/posix"
	"repro/internal/xnu"
)

// inProc boots a Cider system, runs body in a process of persona k (an
// iOS binary linking libSystem, or a static ELF) and runs the system until
// the process exits. body runs on a simulation goroutine, so it reports
// failures with Error, not Fatal.
func inProc(tb testing.TB, k persona.Kind, body func(t *kernel.Thread)) {
	tb.Helper()
	sys, err := NewSystem(ConfigCider)
	if err != nil {
		tb.Fatal(err)
	}
	defer sys.Close()
	ran := false
	fn := kernel.Entry(func(t *kernel.Thread) {
		ran = true
		body(t)
	})
	if k == persona.IOS {
		err = sys.InstallIOSBinary("/bin/hop", "hop", nil, fn)
	} else {
		err = sys.InstallStaticAndroidBinary("/bin/hop", "hop", fn)
	}
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sys.Start("/bin/hop", nil); err != nil {
		tb.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		tb.Fatal(err)
	}
	if !ran {
		tb.Fatalf("%v process never ran its body", k)
	}
}

// writeClose opens /dev/null through persona k's C library (bionic or
// libSystem, behind internal/posix) and returns one write to it plus one
// dup/close pair: traps that carry arguments.
func writeClose(k persona.Kind, t *kernel.Thread) (func() error, error) {
	buf := make([]byte, 64)
	c := posix.New(k, t)
	fd, errno := c.Open("/dev/null")
	if errno != kernel.OK {
		return nil, fmt.Errorf("open /dev/null: %v", errno)
	}
	return func() error {
		if n, errno := c.Write(fd, buf); n != len(buf) || errno != kernel.OK {
			return fmt.Errorf("write = %d, %v", n, errno)
		}
		d, errno := c.Dup(fd)
		if errno != kernel.OK {
			return fmt.Errorf("dup: %v", errno)
		}
		if errno := c.Close(d); errno != kernel.OK {
			return fmt.Errorf("close: %v", errno)
		}
		return nil
	}, nil
}

// glHop binds the iOS GL surface on t, makes an EAGL context current and
// returns one diplomatic GL call.
func glHop(t *kernel.Thread) (func(), error) {
	gl, err := graphics.BindIOSGL(t)
	if err != nil {
		return nil, err
	}
	ctx := gl.Call("_EAGLContextCreate")
	gl.Call("_EAGLContextSetCurrent", ctx)
	if gl.Call("_EAGLRenderbufferStorageFromDrawable", ctx, 640, 480) != 1 {
		return nil, fmt.Errorf("no drawable")
	}
	call := func() { gl.Call("_glUniformMatrix4fv", 3, 1, 0, 0) }
	call() // the first call resolves the domestic symbol
	return call, nil
}

// BenchmarkSyscallArgs measures one write and one dup/close pair through
// each persona's C library on a booted Cider system.
func BenchmarkSyscallArgs(b *testing.B) {
	for _, k := range []persona.Kind{persona.Android, persona.IOS} {
		b.Run(k.String(), func(b *testing.B) {
			inProc(b, k, func(t *kernel.Thread) {
				op, err := writeClose(k, t)
				if err != nil {
					b.Error(err)
					return
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkDiplomatHop measures one diplomatic GL call from an iOS
// process: two set_persona traps around the domestic GLES function.
func BenchmarkDiplomatHop(b *testing.B) {
	inProc(b, persona.IOS, func(t *kernel.Thread) {
		op, err := glHop(t)
		if err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

// machRoundTrip allocates a receive right on t's task and returns one
// libSystem self round trip: a mach_msg send to the port and a receive
// of the message back.
func machRoundTrip(t *kernel.Thread) (func() error, error) {
	lc := libsystem.Sys(t)
	port := lc.MachReplyPort()
	if port == xnu.PortNull {
		return nil, fmt.Errorf("mach_reply_port returned MACH_PORT_NULL")
	}
	msg := &xnu.Message{ID: 7, Body: []byte("self")}
	return func() error {
		if kr := lc.MachSend(port, msg, -1); kr != xnu.KernSuccess {
			return fmt.Errorf("send: kr %#x", kr)
		}
		got, kr := lc.MachReceive(port, -1)
		if kr != xnu.KernSuccess || got.ID != 7 {
			return fmt.Errorf("receive: kr %#x, %+v", kr, got)
		}
		return nil
	}, nil
}
