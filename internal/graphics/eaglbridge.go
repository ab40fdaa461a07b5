package graphics

import (
	"repro/internal/kernel"
	"repro/internal/prog"
)

// EGLBridgePath is Cider's custom Android library implementing Apple's
// EAGL extensions over libEGL and SurfaceFlinger (Section 5.3):
// "a custom domestic Android library, called libEGLbridge, that utilizes
// Android's libEGL library and SurfaceFlinger service to provide
// functionality corresponding to the missing EAGL functions."
const EGLBridgePath = "/system/lib/libEGLbridge.so"

// EGLBridgeFunctions is libEGLbridge's export list. The names mirror the
// EAGL API (underscore-stripped), so the diplomat generator pairs each
// Apple EAGL entry point with its bridge implementation automatically.
var EGLBridgeFunctions = []string{
	"EAGLContextCreate",
	"EAGLContextSetCurrent",
	"EAGLRenderbufferStorageFromDrawable",
	"EAGLContextPresentRenderbuffer",
	"EAGLContextDestroy",
}

// EAGLBridge is the library instance: it owns handle tables translating
// EAGL's object model onto EGL contexts and SurfaceFlinger surfaces.
type EAGLBridge struct {
	egl      *EGL
	nextID   uint64
	contexts map[uint64]*Context
	// FenceBug marks contexts created through this bridge with the Cider
	// prototype's incorrect fence synchronization (Section 6.3). Set on
	// the Cider configuration; off on the iPad and after the ablation fix.
	FenceBug bool
	// StrictSingleThread reproduces the other prototype limitation of
	// Section 6.4: "the iOS WebKit framework is only partially supported
	// due to its multi-threaded use of the OpenGL ES API" — a context
	// current on one thread cannot be made current on another.
	StrictSingleThread bool
	// boundTo tracks which thread each context is current on.
	boundTo map[uint64]int
}

// NewEAGLBridge builds the bridge over libEGL.
func NewEAGLBridge(egl *EGL) *EAGLBridge {
	return &EAGLBridge{
		egl: egl, nextID: 1,
		contexts: make(map[uint64]*Context),
		boundTo:  make(map[uint64]int),
	}
}

// invoke dispatches one bridge call.
func (b *EAGLBridge) invoke(t *kernel.Thread, name string, args []uint64) uint64 {
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch name {
	case "EAGLContextCreate":
		c := b.egl.CreateContext(t, nil)
		c.BuggyFence = b.FenceBug
		h := b.nextID
		b.nextID++
		b.contexts[h] = c
		return h
	case "EAGLContextSetCurrent":
		c, ok := b.contexts[arg(0)]
		if !ok {
			return 0
		}
		if b.StrictSingleThread {
			if owner, bound := b.boundTo[arg(0)]; bound && owner != t.TID() {
				// The prototype's replacement library cannot migrate a
				// context between threads — WebKit's multi-threaded GL
				// usage fails here (§6.4).
				return 0
			}
		}
		b.boundTo[arg(0)] = t.TID()
		b.egl.MakeCurrent(t, c)
		return 1
	case "EAGLRenderbufferStorageFromDrawable":
		// (ctx, width, height): allocate window memory via SurfaceFlinger,
		// the same path all Android windows take — which is how Cider gets
		// iOS windows managed like Android windows.
		c, ok := b.contexts[arg(0)]
		if !ok {
			return 0
		}
		s, err := b.egl.CreateWindowSurface(t, "eagl-drawable", int(arg(1)), int(arg(2)))
		if err != nil {
			return 0
		}
		c.Surface = s
		c.ViewportW, c.ViewportH = s.Buf.Width, s.Buf.Height
		return 1
	case "EAGLContextPresentRenderbuffer":
		c, ok := b.contexts[arg(0)]
		if !ok {
			return 0
		}
		b.egl.SwapBuffers(t, c)
		return 1
	case "EAGLContextDestroy":
		c, ok := b.contexts[arg(0)]
		if !ok {
			return 0
		}
		if c.Surface != nil {
			b.egl.SurfaceFlinger().DestroySurface(t, c.Surface)
		}
		delete(b.contexts, arg(0))
		delete(b.boundTo, arg(0))
		return 1
	}
	return 0
}

// RegisterExports publishes the bridge's symbols.
func (b *EAGLBridge) RegisterExports(reg *prog.Registry) error {
	keys := prog.ExportKeys(EGLBridgePath, "", EGLBridgeFunctions)
	for i, name := range EGLBridgeFunctions {
		fname := name
		if err := reg.Register(keys[i], func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return b.invoke(t, fname, c.Args)
		}); err != nil {
			return err
		}
	}
	return nil
}
