// Package graphics implements both graphics stacks of Section 5.3:
//
//   - The domestic Android stack: gralloc graphics-memory allocation,
//     SurfaceFlinger composition, libEGL, and libGLESv2 driving the GPU
//     simulator through proprietary-shaped interfaces.
//
//   - The foreign iOS-facing stack Cider builds on top of it: the
//     IOSurface replacement library whose key entry points are interposed
//     with diplomats into gralloc, the wholesale diplomatic replacement of
//     the iOS OpenGL ES framework, and libEGLbridge — the custom Android
//     library implementing Apple's EAGL extensions over libEGL and
//     SurfaceFlinger.
package graphics

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// GrallocPath is the HAL module's install path on the Nexus 7 ("grouper").
const GrallocPath = "/system/lib/hw/gralloc.grouper.so"

// Buffer is a gralloc graphics buffer: shareable backing memory plus
// layout, the Android analogue of an IOSurface.
type Buffer struct {
	// ID is the buffer handle.
	ID uint64
	// Width, Height and BPP describe the layout.
	Width, Height, BPP int
	// Backing is the shared pixel store (zero-copy across processes).
	Backing *mem.Backing
}

// Gralloc is the graphics-memory allocator HAL.
type Gralloc struct {
	cpu     *hw.CPUModel
	nextID  uint64
	buffers map[uint64]*Buffer
	// allocCost models ION/carveout allocation work.
	allocCost time.Duration
}

// NewGralloc builds the allocator for a device.
func NewGralloc(cpu *hw.CPUModel) *Gralloc {
	return &Gralloc{
		cpu:       cpu,
		nextID:    1,
		buffers:   make(map[uint64]*Buffer),
		allocCost: cpu.Cycles(39000), // ~30 µs: ION ioctl + map
	}
}

// Alloc allocates a w x h buffer with bpp bytes per pixel.
func (g *Gralloc) Alloc(t *kernel.Thread, w, h, bpp int) (*Buffer, error) {
	if w <= 0 || h <= 0 || bpp <= 0 {
		return nil, fmt.Errorf("gralloc: bad dimensions %dx%dx%d", w, h, bpp)
	}
	t.Charge(g.allocCost)
	b := &Buffer{
		ID:      g.nextID,
		Width:   w,
		Height:  h,
		BPP:     bpp,
		Backing: mem.NewBacking(uint64(w * h * bpp)),
	}
	g.nextID++
	g.buffers[b.ID] = b
	return b, nil
}

// Free releases a buffer.
func (g *Gralloc) Free(t *kernel.Thread, id uint64) error {
	if _, ok := g.buffers[id]; !ok {
		return fmt.Errorf("gralloc: no buffer %d", id)
	}
	t.Charge(g.allocCost / 2)
	delete(g.buffers, id)
	return nil
}

// Get resolves a buffer handle.
func (g *Gralloc) Get(id uint64) (*Buffer, bool) {
	b, ok := g.buffers[id]
	return b, ok
}

// Live reports outstanding buffers.
func (g *Gralloc) Live() int { return len(g.buffers) }
