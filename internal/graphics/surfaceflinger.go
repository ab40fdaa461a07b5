package graphics

import (
	"fmt"
	"time"

	"repro/internal/gpu"
	"repro/internal/iokit"
	"repro/internal/kernel"
)

// Surface is a window: a gralloc-backed layer SurfaceFlinger composites.
type Surface struct {
	// Name labels the layer (app window title).
	Name string
	// Buf is the current window memory.
	Buf *Buffer
	// Visible marks the layer for composition.
	Visible bool
	// queuedFrames counts buffer queue events since the last composite.
	queuedFrames int
}

// SurfaceFlinger is Android's rendering engine: it hands out window
// memory and "uses the GPU to compose all the graphics surfaces for
// different apps and display the final composed surface to the screen"
// (Section 2).
type SurfaceFlinger struct {
	gralloc *Gralloc
	gpu     *gpu.GPU
	fb      *iokit.FBDevice
	layers  []*Surface
	// binderCost is the IPC cost of a client call into the service.
	binderCost time.Duration
	frames     uint64
}

// NewSurfaceFlinger assembles the compositor.
func NewSurfaceFlinger(g *gpu.GPU, gr *Gralloc, fb *iokit.FBDevice) *SurfaceFlinger {
	return &SurfaceFlinger{
		gralloc:    gr,
		gpu:        g,
		fb:         fb,
		binderCost: 26 * time.Microsecond,
	}
}

// Frames reports completed composition passes.
func (sf *SurfaceFlinger) Frames() uint64 { return sf.frames }

// Layers reports the current layer count.
func (sf *SurfaceFlinger) Layers() int { return len(sf.layers) }

// CreateSurface allocates window memory for a client (binder call).
func (sf *SurfaceFlinger) CreateSurface(t *kernel.Thread, name string, w, h int) (*Surface, error) {
	t.Charge(sf.binderCost)
	buf, err := sf.gralloc.Alloc(t, w, h, 4)
	if err != nil {
		return nil, err
	}
	s := &Surface{Name: name, Buf: buf, Visible: true}
	sf.layers = append(sf.layers, s)
	return s, nil
}

// DestroySurface removes a layer and frees its memory.
func (sf *SurfaceFlinger) DestroySurface(t *kernel.Thread, s *Surface) error {
	t.Charge(sf.binderCost)
	for i, l := range sf.layers {
		if l == s {
			sf.layers = append(sf.layers[:i], sf.layers[i+1:]...)
			return sf.gralloc.Free(t, s.Buf.ID)
		}
	}
	return fmt.Errorf("surfaceflinger: unknown surface %q", s.Name)
}

// QueueBuffer submits a rendered buffer for the next composition (the
// client half of eglSwapBuffers).
func (sf *SurfaceFlinger) QueueBuffer(t *kernel.Thread, s *Surface) {
	t.Charge(sf.binderCost)
	s.queuedFrames++
}

// Composite runs one composition pass: blend every visible layer on the
// GPU and flip the framebuffer. The returned fence signals scan-out; a
// swapping client waits on it (double-buffered rendering).
func (sf *SurfaceFlinger) Composite(t *kernel.Thread) *gpu.Fence {
	for _, l := range sf.layers {
		if !l.Visible {
			continue
		}
		sf.gpu.Fill(t, int64(l.Buf.Width*l.Buf.Height))
		l.queuedFrames = 0
	}
	fence := sf.gpu.Present(t)
	if sf.fb != nil {
		// Page flip through the Linux framebuffer driver.
		sf.fb.Flip()
	}
	sf.frames++
	return fence
}
