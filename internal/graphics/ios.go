package graphics

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/diplomat"
	"repro/internal/dyld"
	"repro/internal/elfx"
	"repro/internal/kernel"
	"repro/internal/macho"
	"repro/internal/prog"
	"repro/internal/vfs"
)

// IOSGLExports is the exported surface of the iOS OpenGL ES framework:
// the standard GL API plus Apple's EAGL extensions, in Mach-O symbol form.
func IOSGLExports() []string {
	var out []string
	for _, n := range GLFunctions {
		out = append(out, "_"+n)
	}
	for _, n := range EGLBridgeFunctions {
		out = append(out, "_"+n)
	}
	return out
}

// IOSurfaceExports is the exported surface of the iOS IOSurface library.
var IOSurfaceExports = []string{
	"_IOSurfaceCreate", "_IOSurfaceGetBaseAddress", "_IOSurfaceGetWidth",
	"_IOSurfaceGetHeight", "_IOSurfaceLock", "_IOSurfaceUnlock",
}

// GrallocFunctions is libgralloc's export list (the HAL entry points the
// IOSurface diplomats call into).
var GrallocFunctions = []string{
	"gralloc_alloc", "gralloc_free", "gralloc_lock", "gralloc_unlock",
	"gralloc_get_width", "gralloc_get_height",
}

// RegisterGrallocExports publishes the gralloc HAL symbols.
func RegisterGrallocExports(reg *prog.Registry, g *Gralloc) error {
	impl := map[string]func(t *kernel.Thread, args []uint64) uint64{
		"gralloc_alloc": func(t *kernel.Thread, args []uint64) uint64 {
			w, h, bpp := int(idx(args, 0)), int(idx(args, 1)), int(idx(args, 2))
			if bpp == 0 {
				bpp = 4
			}
			b, err := g.Alloc(t, w, h, bpp)
			if err != nil {
				return 0
			}
			return b.ID
		},
		"gralloc_free": func(t *kernel.Thread, args []uint64) uint64 {
			if g.Free(t, idx(args, 0)) != nil {
				return ^uint64(0)
			}
			return 0
		},
		"gralloc_lock":   func(t *kernel.Thread, args []uint64) uint64 { return 0 },
		"gralloc_unlock": func(t *kernel.Thread, args []uint64) uint64 { return 0 },
		"gralloc_get_width": func(t *kernel.Thread, args []uint64) uint64 {
			if b, ok := g.Get(idx(args, 0)); ok {
				return uint64(b.Width)
			}
			return 0
		},
		"gralloc_get_height": func(t *kernel.Thread, args []uint64) uint64 {
			if b, ok := g.Get(idx(args, 0)); ok {
				return uint64(b.Height)
			}
			return 0
		},
	}
	keys := prog.ExportKeys(GrallocPath, "", GrallocFunctions)
	for i, name := range GrallocFunctions {
		f := impl[name]
		if err := reg.Register(keys[i], func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return f(t, c.Args)
		}); err != nil {
			return err
		}
	}
	return nil
}

func idx(args []uint64, i int) uint64 {
	if i < len(args) {
		return args[i]
	}
	return 0
}

// iosurfaceToGralloc names, for each IOSurface entry point in
// IOSurfaceExports order, the gralloc HAL call its diplomat invokes — the
// hand-written interposition of Section 5.3 ("Cider interposes diplomatic
// functions on key IOSurface API entry points such as IOSurfaceCreate.
// These diplomats call into Android-specific graphics memory allocation
// libraries such as libgralloc.").
var iosurfaceToGralloc = []string{
	"gralloc_alloc",      // _IOSurfaceCreate
	"gralloc_lock",       // _IOSurfaceGetBaseAddress
	"gralloc_get_width",  // _IOSurfaceGetWidth
	"gralloc_get_height", // _IOSurfaceGetHeight
	"gralloc_lock",       // _IOSurfaceLock
	"gralloc_unlock",     // _IOSurfaceUnlock
}

// InstallCiderIOSGraphics builds the foreign-facing half of Cider's
// graphics support on a system whose domestic stack is already registered:
//
//  1. It runs the diplomat generator over the real binaries — the iOS
//     OpenGL ES framework from the iOS filesystem image against
//     libGLESv2.so and libEGLbridge.so from the Android image — and
//     installs a diplomat for every matched export (the "replacement iOS
//     OpenGL ES library with a diplomat for every exported symbol").
//
//  2. It interposes diplomats on the IOSurface entry points, mapping them
//     to libgralloc.
//
// It returns the generated spec list (the audit tool prints it), shared
// with every other boot over the same libraries and read-only.
func InstallCiderIOSGraphics(k *kernel.Kernel, eng *diplomat.Engine, iosFS *vfs.FS, androidFS *vfs.FS, openGLESPath, iosurfacePath string) ([]diplomat.Spec, error) {
	reg := k.Registry()

	specs, err := glDiplomatSpecs(iosFS, androidFS, openGLESPath)
	if err != nil {
		return nil, err
	}
	if err := eng.Install(reg, openGLESPath, specs); err != nil {
		return nil, err
	}

	// IOSurface interposition.
	keys := prog.ExportKeys(iosurfacePath, "", IOSurfaceExports)
	domKeys := prog.ExportKeys(GrallocPath, "", iosurfaceToGralloc)
	for i, key := range keys {
		if err := reg.Register(key, eng.Wrap(domKeys[i])); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// InstallNativeIOSGraphics registers the iPad's own graphics libraries:
// the same export surface backed directly by the device GPU — no
// diplomats, no persona switches.
func InstallNativeIOSGraphics(reg *prog.Registry, gl *GLES, bridge *EAGLBridge, gralloc *Gralloc, openGLESPath, iosurfacePath string) error {
	keys := prog.ExportKeys(openGLESPath, "_", GLFunctions)
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
	keys = prog.ExportKeys(openGLESPath, "_", EGLBridgeFunctions)
	for i, name := range EGLBridgeFunctions {
		fname := name
		if err := reg.Register(keys[i], func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return bridge.invoke(t, fname, c.Args)
		}); err != nil {
			return err
		}
	}
	keys = prog.ExportKeys(iosurfacePath, "", IOSurfaceExports)
	for i, name := range IOSurfaceExports {
		fname := strings.TrimPrefix(name, "_")
		var fn func(t *kernel.Thread, args []uint64) uint64
		switch fname {
		case "IOSurfaceCreate":
			fn = func(t *kernel.Thread, args []uint64) uint64 {
				b, err := gralloc.Alloc(t, int(idx(args, 0)), int(idx(args, 1)), 4)
				if err != nil {
					return 0
				}
				return b.ID
			}
		case "IOSurfaceGetWidth":
			fn = func(t *kernel.Thread, args []uint64) uint64 {
				if b, ok := gralloc.Get(idx(args, 0)); ok {
					return uint64(b.Width)
				}
				return 0
			}
		case "IOSurfaceGetHeight":
			fn = func(t *kernel.Thread, args []uint64) uint64 {
				if b, ok := gralloc.Get(idx(args, 0)); ok {
					return uint64(b.Height)
				}
				return 0
			}
		default:
			fn = func(t *kernel.Thread, args []uint64) uint64 { return 0 }
		}
		f := fn
		if err := reg.Register(keys[i], func(c *prog.Call) uint64 {
			t, ok := c.Ctx.(*kernel.Thread)
			if !ok {
				return 0
			}
			return f(t, c.Args)
		}); err != nil {
			return err
		}
	}
	return nil
}

// GL is an app-side binding: function pointers resolved through dyld, the
// way a real app's lazy stubs bind GL entry points.
type GL struct {
	t   *kernel.Thread
	fns map[string]prog.Func
}

// BindIOSGL resolves the iOS GL + EAGL + IOSurface surface for the calling
// thread's process. Every resolved symbol goes through the loaded-image
// table, so interposition (Cider's replacement libraries) takes effect
// exactly as on device.
func BindIOSGL(t *kernel.Thread) (*GL, error) {
	g := &GL{t: t, fns: make(map[string]prog.Func)}
	for _, sym := range append(IOSGLExports(), IOSurfaceExports...) {
		fn, ok := dyld.ResolveSymbol(t, sym)
		if !ok {
			return nil, fmt.Errorf("graphics: dyld cannot resolve %s", sym)
		}
		g.fns[sym] = fn
	}
	return g, nil
}

// Call invokes a bound symbol in the bound thread's call frame
// (kernel.Thread.CallFunc), so a GL call allocates nothing.
func (g *GL) Call(sym string, args ...uint64) uint64 {
	fn, ok := g.fns[sym]
	if !ok {
		return ^uint64(0)
	}
	return g.t.CallFunc(fn, args)
}

// glSpecs memoizes the generated GL diplomat specs by the byte identity of
// the three libraries they are generated from. Every Cider boot clones the
// same frozen filesystem images, so every boot finds the same three
// arrays; keying on them (not on copies) pins arrays the templates hold
// anyway, and a library rewritten in one System misses and regenerates.
var glSpecs sync.Map // [3]fileID -> []diplomat.Spec

// fileID identifies file contents as macho.ParseShared does: the backing
// array's first byte and the length.
type fileID struct {
	p *byte
	n int
}

// glDiplomatSpecs runs the diplomat generator over the iOS OpenGL ES
// framework against libGLESv2.so and libEGLbridge.so, or returns the specs
// an earlier boot generated from the same bytes. The list is shared by
// every boot that finds those bytes (diplomat.Install keys its registry
// keys on it), so it is read-only.
func glDiplomatSpecs(iosFS, androidFS *vfs.FS, openGLESPath string) ([]diplomat.Spec, error) {
	var key [3]fileID
	var data [3][]byte
	for i, f := range []struct {
		fs   *vfs.FS
		path string
	}{{iosFS, openGLESPath}, {androidFS, "/system/lib/libGLESv2.so"}, {androidFS, "/system/lib/libEGLbridge.so"}} {
		n, err := f.fs.Lookup(f.path)
		if err != nil {
			return nil, err
		}
		if data[i] = n.Data(); len(data[i]) > 0 {
			key[i] = fileID{&data[i][0], len(data[i])}
		}
	}
	if v, ok := glSpecs.Load(key); ok {
		return v.([]diplomat.Spec), nil
	}
	foreign, err := macho.Parse(data[0])
	if err != nil {
		return nil, err
	}
	var domestic []*elfx.File
	for _, b := range data[1:] {
		f, err := elfx.Parse(b)
		if err != nil {
			return nil, err
		}
		domestic = append(domestic, f)
	}
	specs, unmatched := diplomat.Generate(foreign, domestic)
	if len(unmatched) > 0 {
		return nil, fmt.Errorf("graphics: unmatched iOS GL exports need hand-written diplomats: %v", unmatched)
	}
	// libEGLbridge lives under /system/lib in the registry keyspace.
	for i := range specs {
		if specs[i].DomesticLib == "libEGLbridge.so" {
			// Registered under EGLBridgePath, not /system/lib/<soname>;
			// they are the same path, so nothing to fix — assert it.
			if "/system/lib/"+specs[i].DomesticLib != EGLBridgePath {
				return nil, fmt.Errorf("graphics: bridge path mismatch")
			}
		}
	}
	v, _ := glSpecs.LoadOrStore(key, specs)
	return v.([]diplomat.Spec), nil
}
