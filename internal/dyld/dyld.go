// Package dyld is the simulated iOS dynamic linker: the user-space binary
// the kernel Mach-O loader hands control to. It walks the filesystem to
// locate every LC_LOAD_DYLIB dependency (recursively), maps each dylib,
// binds exported symbols, registers the per-library pthread_atfork and
// atexit callbacks whose execution dominates iOS fork/exit latency, runs
// image initializers, and finally jumps to the app entry point
// (Sections 2 and 6.2).
//
// Two configurations matter for the paper's numbers:
//
//   - Cider's prototype uses non-prelinked libraries: "dyld must walk the
//     filesystem to load each library on every exec" — ~115 libraries and
//     ~90 MB of mappings for any app linking libSystem.
//   - iOS's dyld on the iPad uses a prelinked shared cache: one nested-map
//     (submap) attach replaces the walk, making exec and fork much cheaper.
//     Cider "does not yet support" this optimization; enabling it here is
//     the BenchmarkAblationSharedCache experiment.
package dyld

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/macho"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// ProgKey is dyld's registry key; /usr/lib/dyld's text payload names it.
const ProgKey = "dyld"

// SharedCachePath is where iOS stores the prelinked cache.
const SharedCachePath = "/System/Library/Caches/com.apple.dyld/dyld_shared_cache_armv7"

// ImagesKey stores the loaded-image table in task user data.
const ImagesKey = "dyld.images"

// Config controls the linker's behaviour.
type Config struct {
	// SharedCache enables the prelinked shared-cache fast path (iPad
	// configuration; off in the Cider prototype).
	SharedCache bool
	// cacheHandlerGroups is how many consolidated handler registrations a
	// prelinked cache performs instead of one per library.
	CacheHandlerGroups int
}

// LoadedImage is one mapped dylib.
type LoadedImage struct {
	// Path is the install name.
	Path string
	// Exports maps exported symbol names to their program-registry keys.
	Exports map[string]string
}

// Images is the per-process loaded-image table, in load order (flat
// namespace: earlier images win symbol resolution, which is how Cider's
// API interposition forces apps to bind its replacement entry points).
type Images struct {
	list   []*LoadedImage
	byPath map[string]*LoadedImage
}

// CloneUserData implements kernel.UserDataCloner; the table is immutable
// after launch, so fork shares the image list.
func (im *Images) CloneUserData() any { return im }

// List returns images in load order.
func (im *Images) List() []*LoadedImage { return im.list }

// Count returns the number of loaded images.
func (im *Images) Count() int { return len(im.list) }

// Has reports whether an install name is loaded.
func (im *Images) Has(path string) bool { _, ok := im.byPath[path]; return ok }

// Resolve finds the first image exporting symbol, returning its program
// key — dyld's flat-namespace binding rule.
func (im *Images) Resolve(symbol string) (string, bool) {
	for _, img := range im.list {
		if key, ok := img.Exports[symbol]; ok {
			return key, true
		}
	}
	return "", false
}

// ImagesFor returns the task's loaded-image table, if dyld has run.
func ImagesFor(tk *kernel.Task) (*Images, bool) {
	v, ok := tk.UserData(ImagesKey)
	if !ok {
		return nil, false
	}
	im, ok := v.(*Images)
	return im, ok
}

// ResolveSymbol binds a symbol in the calling thread's process, as a lazy
// dyld stub would.
func ResolveSymbol(t *kernel.Thread, symbol string) (prog.Func, bool) {
	im, ok := ImagesFor(t.Task())
	if !ok {
		return nil, false
	}
	key, ok := im.Resolve(symbol)
	if !ok {
		return nil, false
	}
	return t.Kernel().Registry().Lookup(key)
}

// cacheManifest is the serialized prelinked cache (the simulation's
// equivalent of the dyld_shared_cache file format).
type cacheManifest struct {
	TotalBytes uint64       `json:"total_bytes"`
	Images     []cacheImage `json:"images"`
}

type cacheImage struct {
	Path    string   `json:"path"`
	Exports []string `json:"exports"`
}

// Register installs the dyld program into a registry.
func Register(reg *prog.Registry, cfg Config) error {
	if cfg.CacheHandlerGroups == 0 {
		cfg.CacheHandlerGroups = 8
	}
	return reg.Register(ProgKey, func(c *prog.Call) uint64 {
		t := c.Ctx.(*kernel.Thread)
		return run(t, cfg, c.Args)
	})
}

// costs bundles dyld's own compute model for a device.
type costs struct {
	parse       time.Duration
	bindSym     time.Duration
	initImage   time.Duration
	cacheAttach time.Duration
}

const (
	atexitCycles = 9620 // ~7.4 µs per atexit handler
	atforkCycles = 6240 // ~4.8 µs per atfork phase handler
)

func costsFor(t *kernel.Thread) costs {
	cpu := t.Kernel().Device().CPU
	return costs{
		parse:       cpu.Cycles(52000),   // ~40 µs @1.3GHz: load commands
		bindSym:     cpu.Cycles(1560),    // ~1.2 µs per bound symbol
		initImage:   cpu.Cycles(58500),   // ~45 µs per image initializer
		cacheAttach: cpu.Cycles(1560000), // ~1.2 ms one-time cache attach
	}
}

// run is dyld's main: load dependencies, register handlers, call main.
func run(t *kernel.Thread, cfg Config, args []uint64) uint64 {
	tk := t.Task()
	entryKeyV, ok := tk.UserData(kernel.DyldEntryKey)
	if !ok {
		return 255
	}
	entryKey := entryKeyV.(string)
	var needed []string
	if v, ok := tk.UserData(kernel.DyldNeededKey); ok {
		needed = v.([]string)
	}
	cs := costsFor(t)
	images := &Images{byPath: make(map[string]*LoadedImage)}
	tk.SetUserData(ImagesKey, images)

	loaded := false
	if cfg.SharedCache {
		loaded = attachSharedCache(t, cs, images)
	}
	if !loaded {
		// Walk the filesystem, loading each library: the slow path the
		// Cider prototype takes on every exec.
		if err := loadAll(t, cs, images, needed); err != nil {
			return 255
		}
	}

	// Jump to the program entry point.
	entry, ok := t.Kernel().Registry().Lookup(entryKey)
	if !ok {
		return 255
	}
	return entry(&prog.Call{Ctx: t, Args: args})
}

// imageCache maps a parsed dylib (one *macho.File per distinct binary, via
// macho.ParseShared) to its load-time metadata: the export table and the
// exported-symbol count the per-symbol bind charges are computed from. The
// metadata is pure — a function of the bytes and the install path — and a
// LoadedImage is immutable after construction, so every exec of every
// booted System shares one copy per dylib instead of rebuilding a 100+
// entry symbol map each time. Virtual-time charges are NOT cached: the
// caller still charges parse, per-segment map, per-symbol bind, and init
// costs identically on every load, so simulated latencies are unchanged.
var imageCache sync.Map // *macho.File -> *imageEntry

type imageEntry struct {
	path  string
	nsyms int
	img   *LoadedImage
}

func imageFor(f *macho.File, path string) (img *LoadedImage, nsyms int) {
	if v, ok := imageCache.Load(f); ok {
		if e := v.(*imageEntry); e.path == path {
			return e.img, e.nsyms
		}
		// Same bytes installed under a different name: build fresh, keep
		// the first entry.
		return buildImage(f, path)
	}
	img, nsyms = buildImage(f, path)
	imageCache.Store(f, &imageEntry{path: path, nsyms: nsyms, img: img})
	return img, nsyms
}

func buildImage(f *macho.File, path string) (*LoadedImage, int) {
	syms := f.ExportedSymbols()
	img := &LoadedImage{Path: path, Exports: make(map[string]string, len(syms))}
	for _, sym := range syms {
		img.Exports[sym.Name] = prog.SymbolKey(path, sym.Name)
	}
	return img, len(syms)
}

// loadAll maps every transitive dylib dependency.
func loadAll(t *kernel.Thread, cs costs, images *Images, roots []string) error {
	tk := t.Task()
	st := libsystem.ForTask(tk)
	k := t.Kernel()
	work := append([]string(nil), roots...)
	for len(work) > 0 {
		path := work[0]
		work = work[1:]
		if images.Has(path) {
			continue
		}
		node, err := k.Root().Lookup(path)
		if err != nil {
			if tr := k.Tracer(); tr != nil {
				tr.Count(trace.CounterDyldLoadErrors, 1)
			}
			return fmt.Errorf("dyld: library not loaded: %s", path)
		}
		// Opening + faulting in the load commands; dyld mmaps rather than
		// reads, so only the metadata pages cost storage time.
		t.Charge(k.Device().Storage.OpLatency)
		t.Charge(cs.parse)
		f, perr := macho.ParseShared(node.Data())
		if perr != nil || f.FileType != macho.TypeDylib {
			return fmt.Errorf("dyld: %s is not a dylib", path)
		}
		// Map segments at their full VM size — this is where the ~90 MB
		// of an iOS process's library footprint comes from.
		for _, seg := range f.Segments {
			size := uint64(seg.VMSize)
			if size < uint64(len(seg.Data)) {
				size = uint64(len(seg.Data))
			}
			if size == 0 {
				continue
			}
			t.Charge(k.Costs().SegmentMap)
			if _, merr := tk.Mem().Map(0, size, mem.ProtRead|mem.ProtExec, path, false); merr != nil {
				if tr := k.Tracer(); tr != nil {
					tr.Count(trace.CounterDyldLoadErrors, 1)
				}
				return merr
			}
		}
		img, nsyms := imageFor(f, path)
		// One bind charge per exported symbol, exactly as when the export
		// map was built inline — the cache must not change virtual time.
		for i := 0; i < nsyms; i++ {
			t.Charge(cs.bindSym)
		}
		if tr := k.Tracer(); tr != nil {
			tr.Count(trace.CounterDyldBinds, uint64(len(img.Exports)))
			tr.Count(trace.CounterDyldImages, 1)
		}
		images.list = append(images.list, img)
		images.byPath[path] = img
		// Run the image initializer and register its teardown hooks: one
		// atexit handler and one pthread_atfork triple per library.
		t.Charge(cs.initImage)
		registerImageHandlers(st)
		work = append(work, f.Dylibs...)
	}
	return nil
}

// registerImageHandlers models the per-library callbacks dyld registers:
// "for each library, dyld registers a callback that is called on exit,
// resulting in the execution of 115 handlers on exit", plus the
// pthread_atfork callbacks iOS libraries install.
func registerImageHandlers(st *libsystem.State) {
	st.AtExit(atexitHandler)
	st.AtFork(atforkHandler, atforkHandler, atforkHandler) // prepare, parent, child
}

// atexitHandler and atforkHandler are the library hooks every image
// registers. They are shared functions, not closures over an exec's
// costs, so the ~115 registrations per exec allocate nothing; each
// handler prices itself on the running thread's device, the device the
// registering exec was priced on.
func atexitHandler(t *kernel.Thread) { t.Charge(t.Kernel().Device().CPU.Cycles(atexitCycles)) }

func atforkHandler(t *kernel.Thread) { t.Charge(t.Kernel().Device().CPU.Cycles(atforkCycles)) }

// manifestCache maps a serialized cache manifest (keyed like ParseShared,
// by backing-array identity, which pins the bytes so keys can't be reused)
// to its decoded image table. Every exec in the shared-cache configuration
// attaches the same manifest; decoding the JSON and rebuilding 100+ export
// maps per exec was pure host overhead with no virtual-time component.
var manifestCache sync.Map // *byte -> *manifestEntry

type manifestEntry struct {
	n        int
	manifest cacheManifest
	images   []*LoadedImage
}

func decodeManifest(data []byte) (*manifestEntry, bool) {
	if len(data) == 0 {
		return nil, false
	}
	key := &data[0]
	if v, ok := manifestCache.Load(key); ok {
		if e := v.(*manifestEntry); e.n == len(data) {
			return e, true
		}
	}
	e := &manifestEntry{n: len(data)}
	if jerr := json.Unmarshal(data, &e.manifest); jerr != nil {
		return nil, false
	}
	for _, ci := range e.manifest.Images {
		img := &LoadedImage{Path: ci.Path, Exports: make(map[string]string, len(ci.Exports))}
		for _, sym := range ci.Exports {
			img.Exports[sym] = prog.SymbolKey(ci.Path, sym)
		}
		e.images = append(e.images, img)
	}
	manifestCache.Store(key, e)
	return e, true
}

// attachSharedCache maps the prelinked cache as a single submap region and
// installs its image table without touching the filesystem per library.
func attachSharedCache(t *kernel.Thread, cs costs, images *Images) bool {
	k := t.Kernel()
	node, err := k.Root().Lookup(SharedCachePath)
	if err != nil {
		return false
	}
	e, ok := decodeManifest(node.Data())
	if !ok {
		return false
	}
	t.Charge(cs.cacheAttach)
	r, merr := t.Task().Mem().Map(0, e.manifest.TotalBytes, mem.ProtRead|mem.ProtExec, "dyld_shared_cache", false)
	if merr != nil {
		return false
	}
	if tr := k.Tracer(); tr != nil {
		tr.Count(trace.CounterDyldCacheAttach, 1)
		tr.Count(trace.CounterDyldImages, uint64(len(e.manifest.Images)))
	}
	r.Submap = true // nested map: fork never copies these PTEs
	st := libsystem.ForTask(t.Task())
	for _, img := range e.images {
		images.list = append(images.list, img)
		images.byPath[img.Path] = img
	}
	// Prelinking consolidates initializers and teardown hooks.
	groups := 8
	for i := 0; i < groups; i++ {
		t.Charge(cs.initImage)
		registerImageHandlers(st)
	}
	return true
}

// BuildSharedCache prelinks the given dylibs into a cache manifest at
// SharedCachePath — what Apple's update process does offline. root must be
// the filesystem holding the dylibs.
func BuildSharedCache(root vfs.FileSystem, libs []string) error {
	var manifest cacheManifest
	for _, path := range libs {
		node, err := root.Lookup(path)
		if err != nil {
			return err
		}
		f, perr := macho.ParseShared(node.Data())
		if perr != nil {
			return perr
		}
		ci := cacheImage{Path: path}
		for _, sym := range f.ExportedSymbols() {
			ci.Exports = append(ci.Exports, sym.Name)
		}
		for _, seg := range f.Segments {
			size := uint64(seg.VMSize)
			if size < uint64(len(seg.Data)) {
				size = uint64(len(seg.Data))
			}
			manifest.TotalBytes += size
		}
		manifest.Images = append(manifest.Images, ci)
	}
	data, err := json.Marshal(&manifest)
	if err != nil {
		return err
	}
	dir, _ := vfs.Split(SharedCachePath)
	if err := root.MkdirAll(dir); err != nil {
		return err
	}
	node, err := root.Create(SharedCachePath)
	if err != nil {
		if n, lerr := root.Lookup(SharedCachePath); lerr == nil {
			n.SetData(data)
			return nil
		}
		return err
	}
	node.SetData(data)
	return nil
}
