package graphics

import (
	"time"

	"repro/internal/gpu"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/prog"
)

// GLESv2Path is the Android GLES driver library.
const GLESv2Path = "/system/lib/libGLESv2.so"

// EGLPath is the Android EGL library.
const EGLPath = "/system/lib/libEGL.so"

// GLFunctions is the exported surface of libGLESv2.so: the standardized
// OpenGL ES 2.0 API subset the simulation implements. These are the
// symbols the diplomat generator matches against the iOS framework's
// exports (Section 5.3).
var GLFunctions = []string{
	"glActiveTexture", "glAttachShader", "glBindBuffer", "glBindFramebuffer",
	"glBindRenderbuffer", "glBindTexture", "glBlendFunc", "glBufferData",
	"glClear", "glClearColor", "glCompileShader", "glCreateProgram",
	"glCreateShader", "glDeleteBuffers", "glDeleteTextures", "glDisable",
	"glDrawArrays", "glDrawElements", "glEnable", "glFenceSync", "glFinish",
	"glFlush", "glGenBuffers", "glGenFramebuffers", "glGenRenderbuffers",
	"glGenTextures", "glGetError", "glGetShaderiv", "glLinkProgram",
	"glScissor", "glShaderSource", "glTexImage2D", "glTexParameteri",
	"glUniform1f", "glUniform4fv", "glUniformMatrix4fv", "glUseProgram",
	"glVertexAttribPointer", "glViewport", "glWaitSync", "glClientWaitSync",
	"glReadPixels", "glBlendEquation", "glCullFace", "glDepthFunc",
	"glDepthMask", "glFrontFace", "glGenerateMipmap", "glPixelStorei",
	"glStencilFunc", "glStencilOp",
}

// EGLFunctions is the exported surface of libEGL.so.
var EGLFunctions = []string{
	"eglGetDisplay", "eglInitialize", "eglChooseConfig", "eglCreateContext",
	"eglCreateWindowSurface", "eglDestroyContext", "eglDestroySurface",
	"eglMakeCurrent", "eglSwapBuffers", "eglTerminate", "eglGetError",
}

// Context is one GL rendering context's state.
type Context struct {
	// Surface is the attached window memory.
	Surface *Surface
	// ViewportW and ViewportH bound raster output.
	ViewportW, ViewportH int
	// PixelsPerVertex estimates raster load per transformed vertex.
	PixelsPerVertex int
	// boundProgram and error model the API state machine minimally.
	boundProgram uint64
	lastError    uint64
	// pendingFence is the most recent glFenceSync object.
	pendingFence *gpu.Fence
	nextName     uint64
	// BuggyFence reproduces the Cider prototype's incorrect fence
	// synchronization (Section 6.3): waits over-synchronize, draining the
	// whole pipeline instead of waiting for the fence point. Set on
	// contexts created through Cider's replacement library.
	BuggyFence bool
}

// GLES is the domestic OpenGL ES driver library instance: proprietary
// code that talks to the GPU through device-specific ioctls, exposed to
// apps only through the standard GL API.
type GLES struct {
	gpu *gpu.GPU
	// driverCost is the per-call CPU cost inside the driver (command
	// encoding, state validation).
	driverCost time.Duration
	// current maps thread ids to their current context.
	current map[int]*Context
}

// NewGLES builds the driver library for a GPU.
func NewGLES(g *gpu.GPU, cpu *hw.CPUModel) *GLES {
	return &GLES{
		gpu:        g,
		driverCost: cpu.Cycles(1100), // ~0.85 µs per GL call
		current:    make(map[int]*Context),
	}
}

// GPU exposes the engine (tests, compositor sharing).
func (gl *GLES) GPU() *gpu.GPU { return gl.gpu }

// NewContext creates a context sized to a surface.
func (gl *GLES) NewContext(s *Surface) *Context {
	c := &Context{Surface: s, PixelsPerVertex: 24, nextName: 1}
	if s != nil {
		c.ViewportW, c.ViewportH = s.Buf.Width, s.Buf.Height
	}
	return c
}

// MakeCurrent binds a context to the calling thread.
func (gl *GLES) MakeCurrent(t *kernel.Thread, c *Context) {
	gl.current[t.TID()] = c
}

// Current returns the calling thread's context.
func (gl *GLES) Current(t *kernel.Thread) *Context {
	return gl.current[t.TID()]
}

// glInvalidOperation is GL_INVALID_OPERATION.
const glInvalidOperation = 0x0502

// Invoke executes one GL API call by name. Every call pays the driver
// cost; draw-class calls also submit GPU work sized from context state.
func (gl *GLES) Invoke(t *kernel.Thread, name string, args []uint64) uint64 {
	t.Charge(gl.driverCost)
	ctx := gl.current[t.TID()]
	if ctx == nil {
		// No current context: only error queries behave.
		if name == "glGetError" {
			return glInvalidOperation
		}
		return 0
	}
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch name {
	case "glViewport":
		ctx.ViewportW, ctx.ViewportH = int(arg(2)), int(arg(3))
	case "glClear":
		gl.gpu.Fill(t, int64(ctx.ViewportW*ctx.ViewportH))
	case "glDrawArrays":
		// (mode, first, count)
		gl.draw(t, ctx, int64(arg(2)))
	case "glDrawElements":
		// (mode, count, type, indices)
		gl.draw(t, ctx, int64(arg(1)))
	case "glTexImage2D":
		// (target, level, ifmt, w, h, border, fmt, type, data)
		gl.gpu.Upload(t, int64(arg(3)*arg(4))*4)
	case "glBufferData":
		gl.gpu.Upload(t, int64(arg(1)))
	case "glReadPixels":
		// Synchronous readback: drains the pipeline.
		gl.gpu.Finish(t)
	case "glFenceSync":
		ctx.pendingFence = gl.gpu.CreateFence(t)
		ctx.nextName++
		return ctx.nextName - 1
	case "glClientWaitSync", "glWaitSync":
		if ctx.pendingFence != nil {
			if ctx.BuggyFence {
				// The prototype bug: over-synchronize (drain the queue
				// and pay extra interrupt latency) instead of waiting on
				// the fence point.
				gl.gpu.Finish(t)
				t.Charge(3 * gl.gpu.Model().FenceLatency)
			} else {
				gl.gpu.WaitFence(t, ctx.pendingFence)
			}
		}
	case "glFinish":
		gl.gpu.Finish(t)
	case "glFlush":
		gl.gpu.Command(t)
	case "glCreateProgram", "glCreateShader", "glGenBuffers", "glGenTextures",
		"glGenFramebuffers", "glGenRenderbuffers":
		ctx.nextName++
		return ctx.nextName - 1
	case "glUseProgram":
		ctx.boundProgram = arg(0)
	case "glGetError":
		e := ctx.lastError
		ctx.lastError = 0
		return e
	case "glCompileShader", "glLinkProgram":
		// Shader compilation is real work in the driver.
		t.Charge(gl.driverCost * 40)
	default:
		// State changes: one command-stream write.
		gl.gpu.Command(t)
	}
	return 0
}

func (gl *GLES) draw(t *kernel.Thread, ctx *Context, vertices int64) {
	pixels := vertices * int64(ctx.PixelsPerVertex)
	max := int64(ctx.ViewportW * ctx.ViewportH)
	if pixels > max {
		pixels = max
	}
	gl.gpu.Draw(t, vertices, pixels)
}

// RegisterExports registers every GL function under the library's symbol
// keys, so ELF loading/diplomat generation resolve them like real exports.
func (gl *GLES) RegisterExports(reg *prog.Registry, soPath string) error {
	keys := prog.ExportKeys(soPath, "", GLFunctions)
	for i, name := range GLFunctions {
		fname := name
		if err := reg.Register(keys[i], func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return gl.Invoke(t, fname, c.Args)
		}); err != nil {
			return err
		}
	}
	return nil
}

// EGL is the domestic Native Platform Graphics Interface library.
type EGL struct {
	gl *GLES
	sf *SurfaceFlinger
}

// NewEGL assembles libEGL over the driver and the compositor.
func NewEGL(gl *GLES, sf *SurfaceFlinger) *EGL {
	return &EGL{gl: gl, sf: sf}
}

// CreateWindowSurface allocates window memory through SurfaceFlinger.
func (e *EGL) CreateWindowSurface(t *kernel.Thread, name string, w, h int) (*Surface, error) {
	return e.sf.CreateSurface(t, name, w, h)
}

// CreateContext builds a GL context for a surface.
func (e *EGL) CreateContext(t *kernel.Thread, s *Surface) *Context {
	return e.gl.NewContext(s)
}

// MakeCurrent binds the context on the calling thread.
func (e *EGL) MakeCurrent(t *kernel.Thread, c *Context) {
	e.gl.MakeCurrent(t, c)
}

// SwapBuffers queues the rendered buffer, runs a composition pass, and
// blocks until the frame reaches scan-out (double-buffered swap).
func (e *EGL) SwapBuffers(t *kernel.Thread, c *Context) {
	if c == nil || c.Surface == nil {
		return
	}
	e.sf.QueueBuffer(t, c.Surface)
	fence := e.sf.Composite(t)
	e.gl.gpu.WaitFence(t, fence)
}

// GLES exposes the driver library.
func (e *EGL) GLES() *GLES { return e.gl }

// SurfaceFlinger exposes the compositor.
func (e *EGL) SurfaceFlinger() *SurfaceFlinger { return e.sf }
