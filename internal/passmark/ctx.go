package passmark

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dalvik"
	"repro/internal/graphics"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/posix"
	"repro/internal/prog"
)

// ctx is the per-run environment.
type ctx struct {
	t   *kernel.Thread
	sys *core.System
	// kind is the app build's persona; lc is its C library.
	kind persona.Kind
	lc   posix.Libc

	// Android build: the Dalvik VM and the app's dex.
	vm  *dalvik.VM
	dex *dalvik.File

	// iOS build: the dyld-bound GL surface and an EAGL context.
	gl      *graphics.GL
	eaglCtx uint64
	// androidSurface is the Android build's EGL window.
	androidSurface *graphics.Surface

	// toolchain scales native op costs (Xcode for the iOS build; the
	// Android app's native libraries are NDK/GCC built).
	toolchain *hw.Toolchain

	// pending batches native op charges.
	pending time.Duration
}

func wrapDriver(body func(t *kernel.Thread)) prog.Func {
	return func(c *prog.Call) uint64 {
		body(c.Ctx.(*kernel.Thread))
		return 0
	}
}

func newCtx(t *kernel.Thread, sys *core.System, kind persona.Kind) (*ctx, error) {
	c := &ctx{t: t, sys: sys, kind: kind, lc: posix.New(kind, t)}
	if kind == persona.Android {
		c.toolchain = hw.GCC441()
		c.vm = dalvik.NewVM(sys.Kernel.Device().CPU)
		dex, err := buildAppDex()
		if err != nil {
			return nil, err
		}
		c.dex = dex
		// The app's EGL window and GL context.
		s, err := sys.Gfx.SF.CreateSurface(t, "passmark", 1024, 768)
		if err != nil {
			return nil, err
		}
		c.androidSurface = s
		glctx := sys.Gfx.GLES.NewContext(s)
		sys.Gfx.GLES.MakeCurrent(t, glctx)
	} else {
		c.toolchain = hw.Xcode421()
		gl, err := graphics.BindIOSGL(t)
		if err != nil {
			return nil, err
		}
		c.gl = gl
		c.eaglCtx = gl.Call("_EAGLContextCreate")
		gl.Call("_EAGLContextSetCurrent", c.eaglCtx)
		if gl.Call("_EAGLRenderbufferStorageFromDrawable", c.eaglCtx, 1024, 768) != 1 {
			return nil, fmt.Errorf("passmark: no drawable")
		}
	}
	return c, nil
}

// ops charges n native operations of class op (batched).
func (c *ctx) ops(op hw.CPUOp, n int64) {
	cpu := c.sys.Kernel.Device().CPU
	c.pending += time.Duration(float64(cpu.OpTime(op, n)) * c.toolchain.OpScale(op))
	if c.pending > 50*time.Microsecond {
		c.flush()
	}
}

func (c *ctx) flush() {
	if c.pending > 0 {
		c.t.Charge(c.pending)
		c.pending = 0
	}
}

// timed runs fn and returns elapsed virtual time.
func (c *ctx) timed(fn func() error) (time.Duration, error) {
	c.flush()
	start := c.t.Now()
	err := fn()
	c.flush()
	return c.t.Now() - start, err
}

func (c *ctx) tmpPath() string {
	if c.kind == persona.IOS {
		return "/var/mobile/Documents/pm.dat"
	}
	return "/data/local/tmp/pm.dat"
}

// jniGL issues one GL call from the Android app: the Java-side dispatch
// plus JNI transition plus the native GLES driver call.
func (c *ctx) jniGL(name string, args ...uint64) uint64 {
	cpu := c.sys.Kernel.Device().CPU
	c.t.Charge(cpu.Cycles(260 + 30)) // JNI transition + Java dispatch
	return c.sys.Gfx.GLES.Invoke(c.t, name, args)
}

// iosGL issues one GL call from the iOS app — diplomatic on Cider, native
// on the iPad.
func (c *ctx) iosGL(name string, args ...uint64) uint64 {
	return c.gl.Call("_"+name, args...)
}

// glCall dispatches per build.
func (c *ctx) glCall(name string, args ...uint64) uint64 {
	if c.kind == persona.IOS {
		return c.iosGL(name, args...)
	}
	return c.jniGL(name, args...)
}

// present ends a frame.
func (c *ctx) present() {
	if c.kind == persona.IOS {
		c.gl.Call("_EAGLContextPresentRenderbuffer", c.eaglCtx)
		return
	}
	// The Android app swaps through EGL: queue + composite + fence wait.
	sf := c.sys.Gfx.SF
	sf.QueueBuffer(c.t, c.androidSurface)
	fence := sf.Composite(c.t)
	c.sys.GPU.WaitFence(c.t, fence)
}
