package devices

import (
	"time"

	"repro/internal/graphics"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/prog"
	"repro/internal/sim"
)

// Camera is the Linux camera device (/dev/camera0): a sensor producing
// synthetic frames.
type Camera struct {
	// Width and Height are the sensor resolution.
	Width, Height int
	// exposure is the per-frame capture time.
	exposure time.Duration
	frames   uint64
}

// NewCamera creates a 1280x960 sensor (the Nexus 7's front camera class).
func NewCamera() *Camera {
	return &Camera{Width: 1280, Height: 960, exposure: 33 * time.Millisecond}
}

// Frames reports captured frames.
func (c *Camera) Frames() uint64 { return c.frames }

// DevName implements kernel.Device.
func (c *Camera) DevName() string { return "camera0" }

// Open implements kernel.Device.
func (c *Camera) Open(*kernel.Thread) (kernel.File, kernel.Errno) {
	return &cameraFile{dev: c}, kernel.OK
}

// Capture exposes one frame into dst (a pixel buffer), charging sensor
// exposure time. The synthetic image is a gradient stamped with the frame
// counter, so tests can verify real data moved.
func (c *Camera) Capture(t *kernel.Thread, dst []byte) {
	t.Charge(c.exposure)
	c.frames++
	for i := range dst {
		dst[i] = byte(i) ^ byte(c.frames)
	}
}

type cameraFile struct {
	dev *Camera
}

// CamIoctlCapture triggers a capture through the V4L2-style interface.
const CamIoctlCapture = 0x6801

func (f *cameraFile) Read(t *kernel.Thread, buf []byte) (int, kernel.Errno) {
	f.dev.Capture(t, buf)
	return len(buf), kernel.OK
}

func (f *cameraFile) Write(*kernel.Thread, []byte) (int, kernel.Errno) {
	return 0, kernel.EINVAL
}
func (f *cameraFile) Close(*kernel.Thread) kernel.Errno           { return kernel.OK }
func (f *cameraFile) Poll() kernel.PollMask                       { return kernel.PollIn }
func (f *cameraFile) PollQueues(kernel.PollMask) []*sim.WaitQueue { return nil }
func (f *cameraFile) Ioctl(t *kernel.Thread, req, arg uint64) (uint64, kernel.Errno) {
	if req == CamIoctlCapture {
		f.dev.frames++
		t.Charge(f.dev.exposure)
		return f.dev.frames, kernel.OK
	}
	return 0, kernel.ENOTTY
}

// CameraLibPath is the Android camera client library.
const CameraLibPath = "/system/lib/libcamera_client.so"

// CameraFunctions is libcamera_client's export list.
var CameraFunctions = []string{"camera_capture_to_buffer"}

// The registry keys of the device libraries' exports, built once rather
// than on every boot.
var (
	cameraCaptureKey  = prog.SymbolKey(CameraLibPath, "camera_capture_to_buffer")
	locationGetFixKey = prog.SymbolKey(LocationLibPath, "location_get_fix")
	clGetFixKey       = prog.SymbolKey(CoreLocationPath, "_CLLocationManagerGetFix")
	avCaptureKey      = prog.SymbolKey(AVFoundationPath, "_AVCaptureStillImage")
)

// RegisterCameraLib publishes the domestic camera library: captures a
// frame from the sensor into a gralloc buffer — the native Android path
// iOS camera diplomats call into.
func RegisterCameraLib(reg *prog.Registry, cam *Camera, gr *graphics.Gralloc, cpu *hw.CPUModel) error {
	return reg.Register(cameraCaptureKey,
		func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			buf, ok := gr.Get(c.Arg(0))
			if !ok {
				return ^uint64(0)
			}
			t.Charge(cpu.Cycles(26000)) // HAL pipeline setup
			cam.Capture(t, buf.Backing.Bytes())
			return cam.Frames()
		})
}

// iOS-facing entry points ------------------------------------------------

// CoreLocationPath is the iOS CoreLocation framework binary.
const CoreLocationPath = "/System/Library/Frameworks/CoreLocation.framework/CoreLocation"

// AVFoundationPath is the iOS AVFoundation framework binary.
const AVFoundationPath = "/System/Library/Frameworks/AVFoundation.framework/AVFoundation"

// CLExports is CoreLocation's exported surface (the subset modeled).
var CLExports = []string{"_CLLocationManagerGetFix"}

// AVExports is AVFoundation's camera surface (the subset modeled).
var AVExports = []string{"_AVCaptureStillImage"}

// KCLErrDenied mirrors kCLErrorDenied: location services unavailable. Apps
// with fallback paths (the paper's Yelp example) treat this as "current
// location unavailable" and continue.
const KCLErrDenied = ^uint64(0)

// KAVErrNoDevice mirrors AVErrorDeviceNotConnected: no camera. Apps that
// require the camera (the paper's Facetime example) cannot proceed.
const KAVErrNoDevice = ^uint64(0) - 1

// RegisterIOSStubs registers the paper-faithful (prototype) behaviour:
// CoreLocation reports no location services, AVFoundation no camera —
// "Cider will not currently run iOS apps that depend on such devices",
// while fallback-capable apps keep working (Section 6.4).
func RegisterIOSStubs(reg *prog.Registry) error {
	if err := reg.Register(clGetFixKey,
		func(c *prog.Call) uint64 { return KCLErrDenied }); err != nil {
		return err
	}
	return reg.Register(avCaptureKey,
		func(c *prog.Call) uint64 { return KAVErrNoDevice })
}

// Diplomat is the arbitration surface this package needs from
// internal/diplomat (kept as an interface to avoid the dependency for the
// stub-only configuration).
type Diplomat interface {
	Wrap(domesticKey string) prog.Func
}

// RegisterIOSDiplomats registers the Section 6.4 sketch implemented: the
// CoreLocation and AVFoundation entry points become diplomatic functions
// into the Android location/camera libraries.
func RegisterIOSDiplomats(reg *prog.Registry, eng Diplomat) error {
	if err := reg.Register(clGetFixKey, eng.Wrap(locationGetFixKey)); err != nil {
		return err
	}
	return reg.Register(avCaptureKey, eng.Wrap(cameraCaptureKey))
}

// RegisterIOSNative registers the iPad's own implementations: CoreLocation
// backed by the device's receiver, AVFoundation by its camera.
func RegisterIOSNative(reg *prog.Registry, gps *GPS, cam *Camera, gr *graphics.Gralloc, cpu *hw.CPUModel) error {
	if err := reg.Register(clGetFixKey,
		func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return KCLErrDenied
			}
			t.Charge(cpu.Cycles(5200))
			if f := gps.Fix(); f.Valid {
				return f.Pack()
			}
			return KCLErrDenied
		}); err != nil {
		return err
	}
	return reg.Register(avCaptureKey,
		func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return KAVErrNoDevice
			}
			buf, ok := gr.Get(c.Arg(0))
			if !ok {
				return KAVErrNoDevice
			}
			cam.Capture(t, buf.Backing.Bytes())
			return cam.Frames()
		})
}
