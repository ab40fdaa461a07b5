package iokit

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FBDevice is the Linux framebuffer device (/dev/fb0) of the tablet's
// display controller — the domestic half of Section 5.1's example.
type FBDevice struct {
	display *hw.DisplayModel
	// front is the scan-out buffer.
	front *mem.Backing
	// flips counts page flips (diagnostics).
	flips uint64
}

// NewFBDevice creates the framebuffer device for a display.
func NewFBDevice(d *hw.DisplayModel) *FBDevice {
	return &FBDevice{
		display: d,
		front:   mem.NewBacking(uint64(d.Pixels() * 4)),
	}
}

// DevName implements kernel.Device.
func (f *FBDevice) DevName() string { return "fb0" }

// Open implements kernel.Device.
func (f *FBDevice) Open(*kernel.Thread) (kernel.File, kernel.Errno) {
	return &fbFile{dev: f}, kernel.OK
}

// Flips reports completed page flips.
func (f *FBDevice) Flips() uint64 { return f.flips }

// Flip performs a page flip (the compositor's scan-out handoff).
func (f *FBDevice) Flip() { f.flips++ }

// Framebuffer ioctl request codes (FBIO* style).
const (
	// FBIOGetVScreenInfo returns packed width<<16|height.
	FBIOGetVScreenInfo = 0x4600
	// FBIOPanDisplay performs a page flip.
	FBIOPanDisplay = 0x4606
)

// fbFile is an open framebuffer descriptor.
type fbFile struct {
	dev *FBDevice
}

func (f *fbFile) Read(t *kernel.Thread, buf []byte) (int, kernel.Errno) {
	n := copy(buf, f.dev.front.Bytes())
	return n, kernel.OK
}

func (f *fbFile) Write(t *kernel.Thread, buf []byte) (int, kernel.Errno) {
	n := copy(f.dev.front.Bytes(), buf)
	return n, kernel.OK
}

func (f *fbFile) Close(*kernel.Thread) kernel.Errno           { return kernel.OK }
func (f *fbFile) Poll() kernel.PollMask                       { return kernel.PollIn | kernel.PollOut }
func (f *fbFile) PollQueues(kernel.PollMask) []*sim.WaitQueue { return nil }

func (f *fbFile) Ioctl(t *kernel.Thread, req, arg uint64) (uint64, kernel.Errno) {
	switch req {
	case FBIOGetVScreenInfo:
		return uint64(f.dev.display.Width)<<16 | uint64(f.dev.display.Height), kernel.OK
	case FBIOPanDisplay:
		f.dev.flips++
		return 0, kernel.OK
	}
	return 0, kernel.ENOTTY
}

// AppleM2CLCD is the C++ driver class Cider adds to the Nexus 7 display
// driver's source tree: a thin wrapper deriving from the
// IOMobileFramebuffer class interface that forwards to the Linux
// framebuffer driver (Section 5.1). iOS user space finds it by class name
// and talks to it through I/O Kit method calls.
type AppleM2CLCD struct {
	fb *FBDevice
}

// NewAppleM2CLCD wraps a Linux framebuffer device.
func NewAppleM2CLCD(fb *FBDevice) *AppleM2CLCD {
	return &AppleM2CLCD{fb: fb}
}

// IOMobileFramebuffer method selectors (the opaque interface iOS graphics
// libraries invoke).
const (
	// SelGetDisplaySize returns (width, height).
	SelGetDisplaySize uint32 = 1
	// SelSwapBegin/SelSwapEnd bracket a surface swap.
	SelSwapBegin uint32 = 4
	SelSwapEnd   uint32 = 5
)

// ClassName implements Driver.
func (d *AppleM2CLCD) ClassName() string { return "AppleM2CLCD" }

// Matches implements Driver: bind to the Linux fb0 device node entry.
func (d *AppleM2CLCD) Matches(e *RegistryEntry) bool {
	return e.Properties["LinuxDeviceNode"] == "/dev/fb0"
}

// Start implements Driver.
func (d *AppleM2CLCD) Start(e *RegistryEntry) error {
	if d.fb == nil {
		return fmt.Errorf("iokit: AppleM2CLCD has no framebuffer")
	}
	e.Properties["IOMobileFramebuffer"] = "yes"
	e.Properties["IOFBWidth"] = fmt.Sprint(d.fb.display.Width)
	e.Properties["IOFBHeight"] = fmt.Sprint(d.fb.display.Height)
	return nil
}

// Call implements Driver: the IOMobileFramebuffer method table.
func (d *AppleM2CLCD) Call(t *kernel.Thread, selector uint32, args []uint64) ([]uint64, error) {
	switch selector {
	case SelGetDisplaySize:
		return []uint64{uint64(d.fb.display.Width), uint64(d.fb.display.Height)}, nil
	case SelSwapBegin:
		return nil, nil
	case SelSwapEnd:
		d.fb.flips++
		return nil, nil
	}
	return nil, fmt.Errorf("iokit: AppleM2CLCD: bad selector %d", selector)
}
