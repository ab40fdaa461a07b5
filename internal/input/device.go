package input

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Device is the Android input device (/dev/input0): an evdev-style event
// queue. Hardware (or a test driver) injects events; the framework — or
// CiderPress — reads them as a byte stream of marshaled Events.
type Device struct {
	queue []byte
	wait  *sim.WaitQueue
	// waitQs is wait as a reusable slice for PollQueues.
	waitQs []*sim.WaitQueue
	// injected counts events for diagnostics.
	injected uint64
}

// NewDevice creates the input device.
func NewDevice() *Device {
	d := &Device{wait: sim.NewWaitQueue("input0")}
	d.waitQs = []*sim.WaitQueue{d.wait}
	return d
}

// DevName implements kernel.Device.
func (d *Device) DevName() string { return "input0" }

// Open implements kernel.Device.
func (d *Device) Open(*kernel.Thread) (kernel.File, kernel.Errno) {
	return &deviceFile{dev: d}, kernel.OK
}

// Inject queues an event, waking blocked readers. t is the injecting
// context (the touchscreen interrupt path, or CiderPress's test driver).
func (d *Device) Inject(t *kernel.Thread, e Event) {
	d.queue = append(d.queue, e.Marshal()...)
	d.injected++
	d.wait.WakeAll(t.Proc(), sim.WakeNormal)
}

// deviceFile is an open descriptor on the input device.
type deviceFile struct {
	dev *Device
}

func (f *deviceFile) Read(t *kernel.Thread, buf []byte) (int, kernel.Errno) {
	for len(f.dev.queue) == 0 {
		if tag := f.dev.wait.Wait(t.Proc()); tag == sim.WakeInterrupted {
			return 0, kernel.EINTR
		}
	}
	n := copy(buf, f.dev.queue)
	f.dev.queue = f.dev.queue[n:]
	return n, kernel.OK
}

func (f *deviceFile) Write(t *kernel.Thread, buf []byte) (int, kernel.Errno) {
	// uinput-style injection: whole marshaled events only.
	for len(buf) >= EventSize {
		e, err := Unmarshal(buf[:EventSize])
		if err != nil {
			return 0, kernel.EINVAL
		}
		f.dev.Inject(t, e)
		buf = buf[EventSize:]
	}
	return len(buf), kernel.OK
}

func (f *deviceFile) Close(*kernel.Thread) kernel.Errno { return kernel.OK }

func (f *deviceFile) Poll() kernel.PollMask {
	if len(f.dev.queue) > 0 {
		return kernel.PollIn | kernel.PollOut
	}
	return kernel.PollOut
}

func (f *deviceFile) PollQueues(kernel.PollMask) []*sim.WaitQueue { return f.dev.waitQs }

func (f *deviceFile) Ioctl(*kernel.Thread, uint64, uint64) (uint64, kernel.Errno) {
	return 0, kernel.ENOTTY
}
