// Package core assembles complete Cider systems: it boots a simulated
// kernel in one of the paper's configurations, lays down the Android and
// iOS filesystem images (including the ~115 dylibs dyld maps into every
// iOS process), installs the binary loaders, syscall tables, duct-taped
// subsystems, and user-space runtimes, and offers the top-level API the
// examples, benchmarks and tools drive.
//
// The four experimental configurations of Section 6 map to:
//
//	ConfigVanilla    — Linux binaries / Android apps on unmodified Android
//	ConfigCider      — Linux binaries / Android apps on Cider (Nexus 7)
//	ConfigCider      — iOS binaries / apps on Cider (same system instance)
//	ConfigIPad       — iOS binaries / apps on a jailbroken iPad mini
package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/bionic"
	"repro/internal/ciderpress"
	"repro/internal/devices"
	"repro/internal/diplomat"
	"repro/internal/ducttape"
	"repro/internal/dyld"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/graphics"
	"repro/internal/hw"
	"repro/internal/input"
	"repro/internal/iokit"
	"repro/internal/ipa"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/prog"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

// Config selects a system configuration.
type Config int

const (
	// ConfigVanilla is unmodified Android on the Nexus 7.
	ConfigVanilla Config = iota
	// ConfigCider is Cider-enhanced Android on the Nexus 7.
	ConfigCider
	// ConfigIPad is iOS 6.1.2 on a jailbroken iPad mini.
	ConfigIPad
)

func (c Config) String() string {
	switch c {
	case ConfigVanilla:
		return "android-vanilla"
	case ConfigCider:
		return "cider"
	case ConfigIPad:
		return "ipad"
	}
	return fmt.Sprintf("config(%d)", int(c))
}

// Options tune system assembly.
type Options struct {
	// SharedCache forces the dyld shared-library cache on or off; nil
	// means the configuration default (on for iPad, off for Cider — the
	// prototype "does not yet support" it).
	SharedCache *bool
	// FixFences repairs the Cider GLES library's fence-synchronization
	// bug (Section 6.3); nil means the configuration default (buggy on
	// Cider, correct on the iPad). The BenchmarkAblationFenceFix knob.
	FixFences *bool
	// Trace attaches a trace.Session at boot (equivalent to calling
	// EnableTrace on the returned System).
	Trace bool
	// ExtendedDevices implements the Section 6.4 sketch on Cider: GPS via
	// an I/O Kit driver plus diplomatic functions, and camera support by
	// replacing the AVFoundation entry points with diplomats into the
	// Android camera library. Off by default — the paper's prototype
	// supports neither, so CoreLocation reports "location unavailable"
	// (the Yelp fallback path) and camera apps fail (the Facetime case).
	ExtendedDevices bool
	// Device overrides the hardware profile.
	Device *hw.Device
}

// System is one booted device.
type System struct {
	// Config is the system configuration.
	Config Config
	// Sim is the discrete-event simulator everything runs on.
	Sim *sim.Sim
	// Kernel is the booted kernel.
	Kernel *kernel.Kernel
	// Registry is the simulated machine-code registry.
	Registry *prog.Registry
	// AndroidFS is the Android filesystem (nil on iPad).
	AndroidFS *vfs.FS
	// IOSFS is the iOS filesystem layer (nil on vanilla Android).
	IOSFS *vfs.FS
	// IPC is the Mach IPC subsystem (nil on vanilla Android).
	IPC *xnu.IPC
	// Psynch is the pthread kernel support (nil on vanilla Android).
	Psynch *xnu.Psynch
	// DT is the duct tape adaptation runtime (nil on vanilla Android).
	DT *ducttape.Env
	// IOKit is the duct-taped driver framework (Cider and iPad).
	IOKit *iokit.Registry
	// FB is the display controller's framebuffer device.
	FB *iokit.FBDevice
	// GPU is the 3D engine.
	GPU *gpu.GPU
	// Gfx is the domestic graphics stack (gralloc/SurfaceFlinger/EGL/GLES;
	// on the iPad it stands in for the equivalent iOS stack).
	Gfx *GfxStack
	// Diplomat is the arbitration engine (Cider only).
	Diplomat *diplomat.Engine
	// GLSpecs are the auto-generated GL diplomats (Cider only).
	GLSpecs []diplomat.Spec
	// Input is the touchscreen/sensor input device.
	Input *input.Device
	// CiderPress is the proxy service (Cider only).
	CiderPress *ciderpress.Service
	// Syslog observes syslogd (Cider and iPad).
	Syslog *services.SyslogBuffer
	// GPS and Camera are the device's sensors (§6.4).
	GPS    *devices.GPS
	Camera *devices.Camera
	// Trace is the system's observability session, nil until EnableTrace.
	Trace *trace.Session
	// Fault is the system's fault injector, nil until EnableFaults.
	Fault *fault.Injector
	// opts holds the assembly options for later stages.
	opts Options
}

// EnableTrace attaches a trace session to the system: the sim feeds it
// scheduler events, the kernel feeds it syscall records and signal
// events, and the library layers (diplomat, dyld, abi) find it through
// Kernel.Tracer. Idempotent; returns the session. Tracing never charges
// virtual time, so enabling it does not change measured latencies.
func (s *System) EnableTrace() *trace.Session {
	if s.Trace == nil {
		s.Trace = trace.NewSession(s.Config.String())
		s.Sim.SetSink(s.Trace)
		s.Kernel.SetTracer(s.Trace)
	}
	return s.Trace
}

// EnableFaults arms a deterministic fault-injection plan on the system:
// the kernel consults it at syscall dispatch, blocking waits, and memory
// mapping; the Mach IPC subsystem reads it dynamically through the
// kernel; and the system's filesystems route Lookup/Create/Remove
// through it. Injections are recorded in the trace session when one is
// attached. Calling again replaces the plan (injector state resets).
//
// The injector is per-System state keyed only to the plan's seed and
// virtual time, so two systems armed with the same plan make identical
// decisions regardless of host scheduling — the soak harness's
// jobs=1 vs jobs=N determinism check rests on this.
func (s *System) EnableFaults(p fault.Plan) *fault.Injector {
	in := fault.NewInjector(p)
	in.OnInject = func(op fault.Op, key string, out fault.Outcome, now time.Duration) {
		if s.Trace == nil {
			return
		}
		proc, id := "", 0
		if cur := s.Sim.Current(); cur != nil {
			proc, id = cur.Name(), cur.ID()
		}
		s.Trace.Fault(proc, id, op.String(), key, out.Errno, now)
	}
	s.Fault = in
	s.Kernel.EnableFaults(in)
	hook := s.vfsFaultHook(in)
	if s.AndroidFS != nil {
		s.AndroidFS.FaultHook = hook
	}
	if s.IOSFS != nil {
		s.IOSFS.FaultHook = hook
	}
	return in
}

// vfsFaultHook adapts the injector to the vfs.FS fault surface. Faults
// only fire inside a running process: boot-time image assembly (WriteFile
// during NewSystem, IPA installs) must never fault, and has no process to
// charge latency to anyway.
func (s *System) vfsFaultHook(in *fault.Injector) func(op, path string) error {
	return func(op, path string) error {
		p := s.Sim.Current()
		if p == nil {
			return nil
		}
		out, ok := in.VFS(p.Now(), op, path)
		if !ok {
			return nil
		}
		if out.Delay > 0 {
			p.Advance(out.Delay)
		}
		switch out.Errno {
		case 0:
			return nil // pure latency spike
		case int(kernel.ENOSPC):
			return &vfs.ErrNoSpace{Path: path}
		default:
			return &vfs.ErrIO{Path: path}
		}
	}
}

// GfxStack bundles one device's graphics objects.
type GfxStack struct {
	Gralloc *graphics.Gralloc
	SF      *graphics.SurfaceFlinger
	GLES    *graphics.GLES
	EGL     *graphics.EGL
	Bridge  *graphics.EAGLBridge
}

// NewSystem boots a system in the given configuration.
func NewSystem(cfg Config, opts ...Options) (*System, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	s := sim.New()
	reg := prog.NewRegistry()
	sys := &System{Config: cfg, Sim: s, Registry: reg, opts: o}

	device := o.Device
	sharedCache := cfg == ConfigIPad
	if o.SharedCache != nil {
		sharedCache = *o.SharedCache
	}
	var err error
	var root vfs.FileSystem
	var profile kernel.Profile
	switch cfg {
	case ConfigVanilla:
		if device == nil {
			device = hw.Nexus7()
		}
		profile = kernel.ProfileLinuxVanilla
		if sys.AndroidFS, err = newAndroidFS(); err != nil {
			return nil, err
		}
		root = sys.AndroidFS
	case ConfigCider:
		if device == nil {
			device = hw.Nexus7()
		}
		profile = kernel.ProfileCider
		if sys.AndroidFS, err = newAndroidFS(); err != nil {
			return nil, err
		}
		if sys.IOSFS, err = newIOSFS(sharedCache); err != nil {
			return nil, err
		}
		// "Cider overlays a file system hierarchy on the existing Android
		// FS" (Section 3).
		root = vfs.NewOverlay(sys.IOSFS, sys.AndroidFS)
	case ConfigIPad:
		if device == nil {
			device = hw.IPadMini()
		}
		profile = kernel.ProfileXNUNative
		if sys.IOSFS, err = newIOSFS(sharedCache); err != nil {
			return nil, err
		}
		root = sys.IOSFS
	default:
		return nil, fmt.Errorf("core: unknown config %d", cfg)
	}

	k, err := kernel.New(s, kernel.Config{
		Profile: profile, Device: device, Root: root, Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	sys.Kernel = k

	// Devices common to every profile.
	if err := k.AddDevice(kernel.NullDevice{}); err != nil {
		return nil, err
	}
	if err := k.AddDevice(kernel.ZeroDevice{}); err != nil {
		return nil, err
	}

	// Syscall tables, binary loaders, duct-taped subsystems.
	switch cfg {
	case ConfigVanilla:
		k.InstallLinuxTable()
		k.RegisterBinFmt(&kernel.ELFLoader{LinkerKey: bionic.LinkerKey})
	case ConfigCider:
		k.InstallLinuxTable()
		sys.DT = ducttape.NewEnv(k)
		if sys.IPC, err = xnu.InstallIPC(k, sys.DT); err != nil {
			return nil, err
		}
		if sys.Psynch, err = xnu.InstallPsynch(k, sys.DT); err != nil {
			return nil, err
		}
		abi.InstallXNUTable(k)
		k.RegisterBinFmt(&kernel.ELFLoader{LinkerKey: bionic.LinkerKey})
		k.RegisterBinFmt(&kernel.MachOLoader{})
	case ConfigIPad:
		sys.DT = ducttape.NewEnv(k)
		if sys.IPC, err = xnu.InstallIPC(k, sys.DT); err != nil {
			return nil, err
		}
		if sys.Psynch, err = xnu.InstallPsynch(k, sys.DT); err != nil {
			return nil, err
		}
		abi.InstallNativeXNUTable(k)
		k.RegisterBinFmt(&kernel.MachOLoader{})
	}

	// User-space runtimes.
	if cfg != ConfigIPad {
		if err := bionic.RegisterLinker(reg); err != nil {
			return nil, err
		}
		if err := bionic.RegisterSh(reg); err != nil {
			return nil, err
		}
	}
	if cfg != ConfigVanilla {
		if err := dyld.Register(reg, dyld.Config{SharedCache: sharedCache}); err != nil {
			return nil, err
		}
		if err := libsystem.RegisterSh(reg); err != nil {
			return nil, err
		}
		if sys.Syslog, err = services.RegisterAll(reg); err != nil {
			return nil, err
		}
	}

	if err := sys.assembleGraphics(device); err != nil {
		return nil, err
	}
	if err := sys.assembleInput(); err != nil {
		return nil, err
	}
	if err := sys.assembleDevices(); err != nil {
		return nil, err
	}
	if o.Trace {
		sys.EnableTrace()
	}
	return sys, nil
}

// assembleDevices wires the Section 6.4 device story: the Android-side
// GPS/camera hardware and HAL libraries always exist; the iOS-facing
// CoreLocation/AVFoundation entry points are prototype-faithful stubs on
// Cider unless ExtendedDevices enables the sketched I/O-Kit-plus-diplomat
// support; the iPad uses its native implementations.
func (s *System) assembleDevices() error {
	k := s.Kernel
	reg := s.Registry
	cpu := k.Device().CPU
	s.GPS = devices.NewGPS()
	s.Camera = devices.NewCamera()
	if err := k.AddDevice(s.GPS); err != nil {
		return err
	}
	if err := k.AddDevice(s.Camera); err != nil {
		return err
	}
	switch s.Config {
	case ConfigVanilla:
		if err := devices.RegisterLocationLib(reg, s.GPS, cpu); err != nil {
			return err
		}
		return devices.RegisterCameraLib(reg, s.Camera, s.Gfx.Gralloc, cpu)
	case ConfigCider:
		if err := devices.RegisterLocationLib(reg, s.GPS, cpu); err != nil {
			return err
		}
		if err := devices.RegisterCameraLib(reg, s.Camera, s.Gfx.Gralloc, cpu); err != nil {
			return err
		}
		if s.opts.ExtendedDevices {
			// GPS "supported with I/O Kit drivers and diplomatic
			// functions" (§6.4).
			if err := s.IOKit.RegisterDriver(devices.NewIOKitGPSDriver(s.GPS)); err != nil {
				return err
			}
			return devices.RegisterIOSDiplomats(reg, s.Diplomat)
		}
		return devices.RegisterIOSStubs(reg)
	case ConfigIPad:
		return devices.RegisterIOSNative(reg, s.GPS, s.Camera, s.Gfx.Gralloc, cpu)
	}
	return nil
}

// assembleInput registers the input device and, on Cider, the CiderPress
// proxy app that bridges Android input to iOS apps (Sections 3 and 5.2).
func (s *System) assembleInput() error {
	s.Input = input.NewDevice()
	if err := s.Kernel.AddDevice(s.Input); err != nil {
		return err
	}
	if s.Config == ConfigCider {
		s.CiderPress = &ciderpress.Service{
			InputDev: s.Input,
			SF:       s.Gfx.SF,
			Display:  s.Kernel.Device().Display,
		}
		if err := ciderpress.Register(s.Registry, s.CiderPress); err != nil {
			return err
		}
		if err := ciderpress.InstallBinary(s.AndroidFS); err != nil {
			return err
		}
	}
	return nil
}

// BootServices starts launchd, which spawns configd, notifyd and syslogd
// — the "background user-level services required by iOS apps" (Section 3).
// They run as daemons: the simulation still terminates when ordinary
// processes finish.
func (s *System) BootServices() (*kernel.Task, error) {
	if s.Config == ConfigVanilla {
		return nil, fmt.Errorf("core: vanilla Android has no iOS services")
	}
	return s.Start(services.LaunchdPath, nil)
}

// InstallIPA unpacks a decrypted .ipa onto the device and creates the
// Launcher shortcut; the app's code must already be registered under key.
func (s *System) InstallIPA(ipaBytes []byte, key string, fn prog.Func) (*ipa.Installed, error) {
	if s.IOSFS == nil {
		return nil, fmt.Errorf("core: %s cannot install iOS apps", s.Config)
	}
	if fn != nil {
		if err := s.Registry.Register(key, fn); err != nil {
			return nil, err
		}
	}
	return ipa.Install(s.IOSFS, s.AndroidFS, ipaBytes, ciderpress.BinaryPath)
}

// OpenShortcut acts as the Android Launcher tapping a home-screen icon:
// it reads the .shortcut file ipa.Install wrote and starts its target
// (CiderPress) with the recorded arguments (the iOS app path) —
// "an Android Launcher short cut pointing to CiderPress allows a user to
// click an icon on the Android home screen to start an iOS app" (§3).
func (s *System) OpenShortcut(path string) (*kernel.Task, error) {
	if s.AndroidFS == nil {
		return nil, fmt.Errorf("core: %s has no Launcher", s.Config)
	}
	data, err := s.AndroidFS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var target string
	var argv []string
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "target="); ok {
			target = v
		}
		if v, ok := strings.CutPrefix(line, "argv="); ok && v != "" {
			argv = append(argv, v)
		}
	}
	if target == "" {
		return nil, fmt.Errorf("core: %s is not a shortcut", path)
	}
	return s.Start(target, argv)
}

// LaunchIOSApp starts an installed iOS app the way the Android Launcher
// does: through a CiderPress instance pointed at the app's executable.
func (s *System) LaunchIOSApp(appPath string) (*kernel.Task, error) {
	if s.Config != ConfigCider {
		return nil, fmt.Errorf("core: LaunchIOSApp requires the Cider configuration")
	}
	return s.Start(ciderpress.BinaryPath, []string{appPath})
}

// assembleGraphics builds the device's graphics stack: the GPU engine, the
// framebuffer device (bridged into I/O Kit on Cider/iPad), the domestic
// gralloc/SurfaceFlinger/EGL/GLES stack, and — on Cider — the diplomatic
// replacement of the iOS OpenGL ES and IOSurface libraries (Section 5.3).
func (s *System) assembleGraphics(device *hw.Device) error {
	k := s.Kernel
	s.GPU = gpu.New(device.GPU)
	s.FB = iokit.NewFBDevice(device.Display)

	// Duct-taped I/O Kit on the configurations that have XNU subsystems;
	// its device-add hook sees fb0 (and every other device) below.
	if s.Config != ConfigVanilla {
		reg, err := iokit.Install(k, s.DT)
		if err != nil {
			return err
		}
		s.IOKit = reg
		if err := reg.RegisterDriver(iokit.NewAppleM2CLCD(s.FB)); err != nil {
			return err
		}
	}
	if err := k.AddDevice(s.FB); err != nil {
		return err
	}

	gr := graphics.NewGralloc(device.CPU)
	sf := graphics.NewSurfaceFlinger(s.GPU, gr, s.FB)
	gl := graphics.NewGLES(s.GPU, device.CPU)
	egl := graphics.NewEGL(gl, sf)
	bridge := graphics.NewEAGLBridge(egl)
	s.Gfx = &GfxStack{Gralloc: gr, SF: sf, GLES: gl, EGL: egl, Bridge: bridge}

	switch s.Config {
	case ConfigVanilla, ConfigCider:
		if err := gl.RegisterExports(s.Registry, graphics.GLESv2Path); err != nil {
			return err
		}
		if err := bridge.RegisterExports(s.Registry); err != nil {
			return err
		}
		if err := graphics.RegisterGrallocExports(s.Registry, gr); err != nil {
			return err
		}
	}
	if s.Config == ConfigCider {
		s.Diplomat = diplomat.NewEngine(k)
		specs, err := graphics.InstallCiderIOSGraphics(
			k, s.Diplomat, s.IOSFS, s.AndroidFS, OpenGLESPath, IOSurfacePath)
		if err != nil {
			return err
		}
		s.GLSpecs = specs
		// The prototype's GLES replacement mishandles fences (§6.3);
		// contexts handed to iOS apps inherit the bug unless fixed.
		bridge.FenceBug = true
		if s.opts.FixFences != nil && *s.opts.FixFences {
			bridge.FenceBug = false
		}
		// And it cannot migrate contexts between threads — WebKit's
		// multi-threaded GL use is "only partially supported" (§6.4).
		bridge.StrictSingleThread = true
	}
	if s.Config == ConfigIPad {
		if err := graphics.InstallNativeIOSGraphics(
			s.Registry, gl, bridge, gr, OpenGLESPath, IOSurfacePath); err != nil {
			return err
		}
	}
	return nil
}

// Run drives the simulation until every process exits.
func (s *System) Run() error { return s.Sim.Run() }

// Close releases the goroutines of the processes still alive when Run
// returned — service daemons parked in mach_msg or wait4, or the threads
// a deadlock left blocked — and with them the System they keep
// reachable. Their stacks unwind through Go defers, which can change
// IPC and kernel state, so call Close after the audit that reads that
// state (LeakCheck, trace digests), not before. Close is idempotent;
// Run and Start afterwards return sim.ErrClosed. See sim.Sim.Close.
func (s *System) Close() { s.Sim.Close() }

// Start launches the executable at path as a new process.
func (s *System) Start(path string, argv []string) (*kernel.Task, error) {
	if s.Sim.Closed() {
		return nil, sim.ErrClosed
	}
	return s.Kernel.StartProcess(path, argv)
}

// InstallAndroidBinary writes a dynamic ELF executable at path whose body
// is fn and which links the given shared objects (nil means just libc.so).
func (s *System) InstallAndroidBinary(path, key string, needed []string, fn prog.Func) error {
	if s.AndroidFS == nil {
		return fmt.Errorf("core: %s has no Android layer", s.Config)
	}
	if err := s.Registry.Register(key, fn); err != nil {
		return err
	}
	if needed == nil {
		needed = []string{"libc.so"}
	}
	bin, err := prog.DynamicELF(key, needed)
	if err != nil {
		return err
	}
	return s.AndroidFS.WriteFile(path, bin)
}

// InstallStaticAndroidBinary writes a static ELF executable (no linker,
// the shape lmbench's test binaries take).
func (s *System) InstallStaticAndroidBinary(path, key string, fn prog.Func) error {
	if s.AndroidFS == nil {
		return fmt.Errorf("core: %s has no Android layer", s.Config)
	}
	if err := s.Registry.Register(key, fn); err != nil {
		return err
	}
	bin, err := prog.StaticELF(key)
	if err != nil {
		return err
	}
	return s.AndroidFS.WriteFile(path, bin)
}

// InstallIOSBinary writes a Mach-O executable at path whose body is fn.
// nil dylibs means just libSystem (which transitively drags in all ~115
// libraries, as on a real device).
func (s *System) InstallIOSBinary(path, key string, dylibs []string, fn prog.Func) error {
	if s.IOSFS == nil {
		return fmt.Errorf("core: %s has no iOS layer", s.Config)
	}
	if err := s.Registry.Register(key, fn); err != nil {
		return err
	}
	if dylibs == nil {
		dylibs = []string{LibSystemPath}
	}
	bin, err := iosExecutable(key, dylibs)
	if err != nil {
		return err
	}
	return s.IOSFS.WriteFileShared(path, bin)
}

// iosExecutables memoizes InstallIOSBinary's images: the bytes are a pure
// function of the key and the dylib list, and the benchmark batteries
// install the same few binaries into every cell. Sharing one image per
// distinct binary keeps macho.ParseShared's identity cache, which pins
// every array it sees, bounded by the number of distinct binaries.
var iosExecutables sync.Map // iosExecutableID -> []byte

type iosExecutableID struct{ key, dylibs string }

func iosExecutable(key string, dylibs []string) ([]byte, error) {
	id := iosExecutableID{key, strings.Join(dylibs, "\x00")}
	if v, ok := iosExecutables.Load(id); ok {
		return v.([]byte), nil
	}
	bin, err := prog.MachOExecutable(key, dylibs, nil)
	if err != nil {
		return nil, err
	}
	v, _ := iosExecutables.LoadOrStore(id, bin)
	return v.([]byte), nil
}
