package core

import (
	"sync"

	"repro/internal/dyld"
	"repro/internal/vfs"
)

// The iOS and Android filesystem images are pure functions of package
// constants — 115 dylibs, the HAL .so set, dyld, the shells — yet they used
// to be regenerated from scratch for every booted System, which profiling
// showed was the single largest share of benchmark wall time (~45% of a
// Fig. 5 battery, ~90MB of Mach-O bytes re-synthesized per cell). Each
// image is now built once per process, frozen, and cloned per System.
// Clone copies every node into one slab and every directory entry into
// another, and shares file bytes copy-on-write, so a boot's image costs
// two allocations whatever its size (the iOS image is ~220 nodes).
// Freezing makes in-place writes through any clone safe (they copy
// first), and the templates themselves are never handed out, so nothing
// can mutate them.
//
// The templates hold:
//
//   - iosImage: the directory skeleton, the 115 dylibs, /usr/lib/dyld,
//     /bin/sh, the five service daemons' executables and
//     services.CrashLogDir (buildIOSFS);
//   - iosCacheImage: iosImage plus the prelinked dyld shared cache at
//     dyld.SharedCachePath, for the iPad and for Cider with
//     Options.SharedCache set. Every such boot shares one manifest, so
//     dyld decodes it once per process, not once per boot;
//   - androidImage: the Android skeleton, the Bionic .so set, the HAL
//     libraries and /system/bin/sh (buildAndroidFS).
//
// Cider's default image is iosImage: the prototype has no shared cache.
//
// None of this touches virtual time: image construction never charged
// simulated cycles, so a cloned boot is bit-identical to a rebuilt one
// (the determinism and soak digest tests pin this).
var (
	iosImage = sync.OnceValues(func() (*vfs.FS, error) {
		return frozen(buildIOSFS)
	})
	iosCacheImage = sync.OnceValues(func() (*vfs.FS, error) {
		base, err := iosImage()
		if err != nil {
			return nil, err
		}
		fs := base.Clone()
		if err := dyld.BuildSharedCache(fs, IOSDylibs()); err != nil {
			return nil, err
		}
		fs.Freeze()
		return fs, nil
	})
	androidImage = sync.OnceValues(func() (*vfs.FS, error) {
		return frozen(buildAndroidFS)
	})
)

// frozen builds an image into a new filesystem and freezes it.
func frozen(build func(*vfs.FS) error) (*vfs.FS, error) {
	fs := vfs.New()
	if err := build(fs); err != nil {
		return nil, err
	}
	fs.Freeze()
	return fs, nil
}

// newIOSFS returns a fresh iOS filesystem image (a clone of the template),
// with the dyld shared cache when sharedCache is set.
func newIOSFS(sharedCache bool) (*vfs.FS, error) {
	tmpl := iosImage
	if sharedCache {
		tmpl = iosCacheImage
	}
	return clone(tmpl)
}

// newAndroidFS returns a fresh Android filesystem image.
func newAndroidFS() (*vfs.FS, error) { return clone(androidImage) }

func clone(tmpl func() (*vfs.FS, error)) (*vfs.FS, error) {
	fs, err := tmpl()
	if err != nil {
		return nil, err
	}
	return fs.Clone(), nil
}
