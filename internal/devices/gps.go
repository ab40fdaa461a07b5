// Package devices implements the device-support sketch of Section 6.4.
// The paper's prototype supports no GPS or camera — "an app such as
// Facetime that requires use of the camera does not currently work with
// Cider", while apps with fallback paths (Yelp) keep running — but lays
// out how support would be built: "Devices with a simple interface, such
// as GPS, can be supported with I/O Kit drivers and diplomatic functions";
// for the camera, "by replacing these API entry points with diplomatic
// functions that interact with native Android hardware, it may be possible
// to provide camera support."
//
// This package implements both sketches: the Android-side hardware
// (GPS and camera devices, their HAL libraries) always exists on the
// Nexus 7; the iOS-facing CoreLocation/AVFoundation entry points are
// unsupported stubs in the paper-faithful configuration and diplomatic
// functions when core.Options.ExtendedDevices is set.
package devices

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hw"
	"repro/internal/iokit"
	"repro/internal/kernel"
	"repro/internal/prog"
	"repro/internal/sim"
)

// Fix is a GPS position.
type Fix struct {
	// LatE6 and LonE6 are degrees scaled by 1e6.
	LatE6, LonE6 int32
	// Valid marks an acquired fix.
	Valid bool
}

// Pack encodes the fix for register-style transport: bit 63 is validity,
// bits 32..62 carry latitude offset by +90° (31 bits), bits 0..31 carry
// longitude offset by +180° (32 bits). Both scaled ranges fit with room to
// spare (±90e6 / ±180e6).
func (f Fix) Pack() uint64 {
	if !f.Valid {
		return 0
	}
	lat := uint64(int64(f.LatE6) + 90_000_000)
	lon := uint64(int64(f.LonE6) + 180_000_000)
	return 1<<63 | lat<<32 | lon
}

// UnpackFix decodes a packed fix.
func UnpackFix(v uint64) Fix {
	if v&(1<<63) == 0 {
		return Fix{}
	}
	return Fix{
		LatE6: int32(int64((v>>32)&0x7FFF_FFFF) - 90_000_000),
		LonE6: int32(int64(v&0xFFFF_FFFF) - 180_000_000),
		Valid: true,
	}
}

// GPSIoctlGetFix is the Linux GPS driver's ioctl request code.
const GPSIoctlGetFix = 0x6701

// GPS is the Linux GPS device (/dev/gps0) — Android-side hardware.
type GPS struct {
	fix Fix
}

// NewGPS creates the device with no fix acquired.
func NewGPS() *GPS { return &GPS{} }

// SetFix programs the simulated receiver (the test's satellite).
func (g *GPS) SetFix(latE6, lonE6 int32) {
	g.fix = Fix{LatE6: latE6, LonE6: lonE6, Valid: true}
}

// Fix returns the current fix.
func (g *GPS) Fix() Fix { return g.fix }

// DevName implements kernel.Device.
func (g *GPS) DevName() string { return "gps0" }

// Open implements kernel.Device.
func (g *GPS) Open(*kernel.Thread) (kernel.File, kernel.Errno) {
	return &gpsFile{dev: g}, kernel.OK
}

type gpsFile struct {
	dev *GPS
}

func (f *gpsFile) Read(t *kernel.Thread, buf []byte) (int, kernel.Errno) {
	// NMEA-style: the packed fix as 8 bytes.
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, f.dev.fix.Pack())
	return copy(buf, b), kernel.OK
}

func (f *gpsFile) Write(t *kernel.Thread, buf []byte) (int, kernel.Errno) {
	return 0, kernel.EINVAL
}
func (f *gpsFile) Close(*kernel.Thread) kernel.Errno           { return kernel.OK }
func (f *gpsFile) Poll() kernel.PollMask                       { return kernel.PollIn }
func (f *gpsFile) PollQueues(kernel.PollMask) []*sim.WaitQueue { return nil }

func (f *gpsFile) Ioctl(t *kernel.Thread, req, arg uint64) (uint64, kernel.Errno) {
	if req == GPSIoctlGetFix {
		return f.dev.fix.Pack(), kernel.OK
	}
	return 0, kernel.ENOTTY
}

// IOKitGPSDriver is the I/O Kit driver class half of the paper's GPS
// sketch: a thin wrapper matching the Linux GPS device node, so iOS
// location libraries can discover and query the receiver through the
// I/O Kit registry exactly as they would on Apple hardware.
type IOKitGPSDriver struct {
	gps *GPS
}

// NewIOKitGPSDriver wraps the Linux GPS device.
func NewIOKitGPSDriver(g *GPS) *IOKitGPSDriver { return &IOKitGPSDriver{gps: g} }

// SelGPSGetFix is the driver's method selector.
const SelGPSGetFix uint32 = 1

// ClassName implements iokit.Driver.
func (d *IOKitGPSDriver) ClassName() string { return "AppleSmartGPS" }

// Matches implements iokit.Driver.
func (d *IOKitGPSDriver) Matches(e *iokit.RegistryEntry) bool {
	return e.Properties["LinuxDeviceNode"] == "/dev/gps0"
}

// Start implements iokit.Driver.
func (d *IOKitGPSDriver) Start(e *iokit.RegistryEntry) error {
	e.Properties["LocationCapable"] = "yes"
	return nil
}

// Call implements iokit.Driver.
func (d *IOKitGPSDriver) Call(t *kernel.Thread, selector uint32, args []uint64) ([]uint64, error) {
	if selector == SelGPSGetFix {
		return []uint64{d.gps.Fix().Pack()}, nil
	}
	return nil, errBadSelector
}

var errBadSelector = fmt.Errorf("devices: bad selector")

// LocationLibPath is the Android location HAL client library.
const LocationLibPath = "/system/lib/liblocation.so"

// LocationFunctions is liblocation's export list.
var LocationFunctions = []string{"location_get_fix"}

// RegisterLocationLib publishes the domestic location library: it reads
// the fix from the GPS device through the device framework, the way
// Android's location service sits on the GPS HAL.
func RegisterLocationLib(reg *prog.Registry, gps *GPS, cpu *hw.CPUModel) error {
	return reg.Register(locationGetFixKey,
		func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			// HAL fix acquisition cost.
			t.Charge(cpu.Cycles(5200))
			return gps.Fix().Pack()
		})
}
