package core

import (
	"fmt"

	"repro/internal/bionic"
	"repro/internal/devices"
	"repro/internal/graphics"
	"repro/internal/libsystem"
	"repro/internal/prog"
	"repro/internal/services"
	"repro/internal/vfs"
)

// LibSystemPath is the root iOS library every binary links.
const LibSystemPath = "/usr/lib/libSystem.B.dylib"

// UIKitPath is the iOS user-interface framework binary.
const UIKitPath = "/System/Library/Frameworks/UIKit.framework/UIKit"

// OpenGLESPath is the iOS OpenGL ES framework binary (replaced wholesale
// with diplomats by Cider, Section 5.3).
const OpenGLESPath = "/System/Library/Frameworks/OpenGLES.framework/OpenGLES"

// IOSurfacePath is the iOS graphics-memory library.
const IOSurfacePath = "/System/Library/PrivateFrameworks/IOSurface.framework/IOSurface"

// iosDylibBytes sizes each library so ~115 of them total ~90 MB — the
// footprint dyld maps into every process (Section 6.2).
const iosDylibBytes = 800 << 10

// iosSystemLibs is /usr/lib/system: libSystem's real constituent set.
var iosSystemLibs = []string{
	"libsystem_c", "libsystem_kernel", "libsystem_m", "libsystem_malloc",
	"libsystem_network", "libsystem_info", "libsystem_notify",
	"libsystem_sandbox", "libsystem_blocks", "libsystem_dnssd",
	"libdispatch", "libxpc", "libcommonCrypto", "libcompiler_rt",
	"libcopyfile", "libkeymgr", "liblaunch", "libmacho",
	"libquarantine", "libremovefile", "libsystem_coreservices",
	"libunwind", "libcorecrypto", "libsystem_asl", "libsystem_configuration",
}

// iosUsrLibs is /usr/lib.
var iosUsrLibs = []string{
	"libobjc.A", "libc++.1", "libc++abi", "libicucore.A", "libz.1",
	"libsqlite3", "libxml2.2", "libcache", "libbsm.0", "libMobileGestalt",
	"libCRFSuite", "libarchive.2", "libbz2.1.0", "libiconv.2", "liblzma.5",
	"libstdc++.6", "libtidy.A", "libxslt.1", "libresolv.9", "libAccessibility",
}

// iosFrameworks is /System/Library/Frameworks (public).
var iosFrameworks = []string{
	"Foundation", "CoreFoundation", "UIKit", "QuartzCore", "CoreGraphics",
	"CoreText", "OpenGLES", "AudioToolbox", "AVFoundation", "CFNetwork",
	"CoreData", "CoreImage", "CoreLocation", "CoreMedia", "CoreMotion",
	"CoreTelephony", "CoreVideo", "EventKit", "ImageIO", "MapKit",
	"MediaPlayer", "MessageUI", "MobileCoreServices", "OpenAL",
	"Security", "StoreKit", "SystemConfiguration", "WebKit", "AdSupport",
	"iAd", "GLKit", "GameKit", "AddressBook", "AssetsLibrary",
}

// iosPrivateFrameworks is /System/Library/PrivateFrameworks.
var iosPrivateFrameworks = []string{
	"IOSurface", "GraphicsServices", "UIFoundation", "WebCore",
	"IOMobileFramebuffer", "IOKit", "AppSupport", "BackBoardServices",
	"FrontBoardServices", "CoreUI", "TextInput", "SpringBoardServices",
	"MobileKeyBag", "PersistentConnection", "ManagedConfiguration",
	"MediaRemote", "CoreSymbolication", "DataAccessExpress",
	"MobileAsset", "ProtocolBuffer", "AggregateDictionary",
	"MobileInstallation", "MobileIcons", "CrashReporterSupport",
	"ApplePushService", "CoreTime", "Bom", "CaptiveNetwork",
	"CellularPlanManager", "CommonUtilities", "CoreDuet",
	"FTServices", "GeoServices", "IMCore", "IdleTimerServices",
}

// IOSDylibs returns the install names of the full base library set —
// 115 images, matching the count dyld loads on iOS 6 (Section 6.2).
func IOSDylibs() []string {
	var out []string
	out = append(out, LibSystemPath)
	for _, n := range iosSystemLibs {
		out = append(out, "/usr/lib/system/"+n+".dylib")
	}
	for _, n := range iosUsrLibs {
		out = append(out, "/usr/lib/"+n+".dylib")
	}
	for _, n := range iosFrameworks {
		out = append(out, "/System/Library/Frameworks/"+n+".framework/"+n)
	}
	for _, n := range iosPrivateFrameworks {
		out = append(out, "/System/Library/PrivateFrameworks/"+n+".framework/"+n)
	}
	return out
}

// buildIOSFS lays down the iOS filesystem image: the dylib set, dyld, the
// iOS shell, the service daemons, and the directory skeleton apps expect
// (/Documents and friends come from the app sandbox, created at install
// time).
func buildIOSFS(fs *vfs.FS) error {
	for _, dir := range []string{
		"/usr/lib/system", "/System/Library/Frameworks",
		"/System/Library/PrivateFrameworks", "/System/Library/Caches",
		"/var/mobile/Documents", "/var/mobile/Library", "/var/tmp", "/tmp", "/bin",
		"/Applications", "/private/var",
	} {
		if err := fs.MkdirAll(dir); err != nil {
			return err
		}
	}

	libs := IOSDylibs()
	// libSystem re-exports the whole base set: linking it drags in every
	// library "irrespective of whether or not those libraries are used".
	for i, install := range libs {
		var deps []string
		if install == LibSystemPath {
			deps = append(deps, libs[1:]...)
		} else {
			deps = []string{LibSystemPath}
		}
		if install != LibSystemPath && i%2 == 0 {
			// Half the libraries also depend on a sibling, exercising the
			// recursive dependency walk without changing the total count.
			deps = append(deps, libs[1+(i+3)%(len(libs)-1)])
		}
		exports := []string{fmt.Sprintf("_%s_init", sanitize(install))}
		switch install {
		case OpenGLESPath:
			// The real framework's surface: standard GL plus EAGL. These
			// exports feed the diplomat generator.
			exports = graphics.IOSGLExports()
		case IOSurfacePath:
			exports = append([]string(nil), graphics.IOSurfaceExports...)
		case devices.CoreLocationPath:
			exports = append([]string(nil), devices.CLExports...)
		case devices.AVFoundationPath:
			exports = append([]string(nil), devices.AVExports...)
		}
		bin, err := prog.MachODylib(install, dedup(deps, install), exports, iosDylibBytes)
		if err != nil {
			return err
		}
		if err := fs.WriteFile(install, bin); err != nil {
			return err
		}
	}

	// /usr/lib/dyld: a Mach-O whose text payload names the dyld program.
	dyldBin, err := prog.MachODylib("dyld", nil, nil, 256<<10)
	if err != nil {
		return err
	}
	if err := fs.WriteFile("/usr/lib/dyld", dyldBin); err != nil {
		return err
	}

	// /bin/sh: the iOS shell (Mach-O linking libSystem).
	shBin, err := prog.MachOExecutable(libsystem.ShKey, []string{LibSystemPath}, nil)
	if err != nil {
		return err
	}
	if err := fs.WriteFile("/bin/sh", shBin); err != nil {
		return err
	}
	return services.InstallImage(fs)
}

// androidSystemLibs is the Bionic/.so set of an Android 4.2 image.
var androidSystemLibs = []string{
	"libc.so", "libm.so", "libdl.so", "libstdc++.so", "liblog.so",
	"libutils.so", "libcutils.so", "libbinder.so", "libui.so", "libgui.so",
	"libEGL.so", "libGLESv1_CM.so", "libGLESv2.so", "libhardware.so",
	"libandroid.so", "libandroid_runtime.so", "libskia.so", "libssl.so",
	"libcrypto.so", "libz.so", "libsqlite.so", "libmedia.so",
}

// buildAndroidFS lays down the Android filesystem image.
func buildAndroidFS(fs *vfs.FS) error {
	for _, dir := range []string{
		"/system/bin", "/system/lib", "/system/app", "/system/framework",
		"/data/app", "/data/data", "/data/local/tmp", "/sdcard", "/tmp",
	} {
		if err := fs.MkdirAll(dir); err != nil {
			return err
		}
	}
	for _, so := range androidSystemLibs {
		var needed []string
		if so != "libc.so" {
			needed = []string{"libc.so"}
		}
		exports := []string{fmt.Sprintf("%s_init", sanitize(so))}
		switch so {
		case "libGLESv2.so":
			needed = append(needed, "libhardware.so")
			exports = append([]string(nil), graphics.GLFunctions...)
		case "libEGL.so":
			needed = append(needed, "libhardware.so")
			exports = append([]string(nil), graphics.EGLFunctions...)
		}
		bin, err := prog.ELFSharedObject(so, needed, exports)
		if err != nil {
			return err
		}
		if err := fs.WriteFile("/system/lib/"+so, bin); err != nil {
			return err
		}
	}
	// Cider's custom EAGL bridge library.
	bridgeBin, err := prog.ELFSharedObject("libEGLbridge.so",
		[]string{"libEGL.so", "libgui.so"}, graphics.EGLBridgeFunctions)
	if err != nil {
		return err
	}
	if err := fs.WriteFile(graphics.EGLBridgePath, bridgeBin); err != nil {
		return err
	}
	// The location and camera HAL client libraries (§6.4).
	locBin, err := prog.ELFSharedObject("liblocation.so", []string{"libc.so"}, devices.LocationFunctions)
	if err != nil {
		return err
	}
	if err := fs.WriteFile(devices.LocationLibPath, locBin); err != nil {
		return err
	}
	camBin, err := prog.ELFSharedObject("libcamera_client.so", []string{"libc.so", "libui.so"}, devices.CameraFunctions)
	if err != nil {
		return err
	}
	if err := fs.WriteFile(devices.CameraLibPath, camBin); err != nil {
		return err
	}
	// The gralloc HAL module.
	grallocBin, err := prog.ELFSharedObject("gralloc.grouper.so",
		[]string{"libhardware.so"}, graphics.GrallocFunctions)
	if err != nil {
		return err
	}
	if err := fs.WriteFile(graphics.GrallocPath, grallocBin); err != nil {
		return err
	}
	// /system/bin/sh: dynamic ELF needing libc.
	shBin, err := prog.DynamicELF(bionic.ShKey, []string{"libc.so", "libm.so"})
	if err != nil {
		return err
	}
	return fs.WriteFile("/system/bin/sh", shBin)
}

// sanitize turns an install path into a symbol-safe token.
func sanitize(path string) string {
	out := make([]byte, 0, len(path))
	for i := 0; i < len(path); i++ {
		c := path[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// dedup removes duplicates and self-references from a dependency list.
func dedup(deps []string, self string) []string {
	seen := map[string]bool{self: true}
	var out []string
	for _, d := range deps {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}
