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
	"strings"
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

	var images *Images
	var err error
	if cfg.SharedCache {
		images = attachSharedCache(t, cs)
	}
	if images == nil {
		// Walk the filesystem, loading each library: the slow path the
		// Cider prototype takes on every exec.
		images, err = loadAll(t, cs, needed)
	}
	tk.SetUserData(ImagesKey, images)
	if err != nil {
		return 255
	}

	// Jump to the program entry point.
	entry, ok := t.Kernel().Registry().Lookup(entryKey)
	if !ok {
		return 255
	}
	return entry(&prog.Call{Ctx: t, Args: args})
}

// buildImage derives a dylib's load-time metadata: its export table and
// the exported-symbol count the per-symbol bind charges are computed from.
// A LoadedImage is immutable after construction; the link plan that
// records it shares it with every later exec.
func buildImage(f *macho.File, path string) (*LoadedImage, int) {
	syms := f.ExportedSymbols()
	img := &LoadedImage{Path: path, Exports: make(map[string]string, len(syms))}
	for _, sym := range syms {
		img.Exports[sym.Name] = prog.SymbolKey(path, sym.Name)
	}
	return img, len(syms)
}

// newImages builds an image table over list.
func newImages(list []*LoadedImage) *Images {
	im := &Images{list: list, byPath: make(map[string]*LoadedImage, len(list))}
	for _, img := range list {
		im.byPath[img.Path] = img
	}
	return im
}

func (im *Images) add(img *LoadedImage) {
	im.list = append(im.list, img)
	im.byPath[img.Path] = img
}

// A linkPlan is the result of one complete filesystem walk over a root
// set: the images the walk loaded, in its breadth-first order, each with
// the byte identity it was parsed from, and the image table it built. The
// walk is a pure function of the root set and the dylib bytes it finds,
// and every booted System shares the template's dylib arrays, so later
// execs of the same roots replay the plan instead of re-deriving it:
// no dedup probes, no queue, no parse-cache lookups or export tables, and
// no per-exec image table. Replay keeps every virtual-time effect of the walk — the
// Lookup of each path, every Charge (one per exported symbol, as the walk
// makes them), every Map, every tracer count and handler registration, in
// the walk's order — so a replayed exec is bit-identical to a walked one.
//
// Validation is per step: replay looks each path up at the point the walk
// would (or takes the node from the kernel's memo of an unchanged tree,
// see planMemo), and if the lookup fails or the node's bytes are not the
// array the plan was recorded from (the identity macho.ParseShared keys
// on), it continues as the walk from that step, over the prefix already
// loaded.
type linkPlan struct {
	// roots is the executable's LC_LOAD_DYLIB list (immutable: the kernel
	// copies it per exec).
	roots []string
	steps []planStep
	// nsegs is the number of segments the steps map, summed.
	nsegs int
	// images is the walk's table, shared by every replaying exec (and,
	// through CloneUserData, their forks); nothing mutates it after launch.
	images *Images
}

// planStep is one image load: what the walk derived from the bytes.
type planStep struct {
	path string
	// data and n identify the node bytes the image was parsed from.
	data *byte
	n    int
	// segs are the mapped segment sizes, in segment order, zero sizes
	// dropped (the walk maps and charges only non-empty segments).
	segs  []uint64
	nsyms int
	img   *LoadedImage
	// deps is the image's LC_LOAD_DYLIB list.
	deps []string
}

// matches reports whether node still holds the bytes the step was
// recorded from.
func (s *planStep) matches(node *vfs.Node) bool {
	data := node.Data()
	return len(data) == s.n && s.n > 0 && &data[0] == s.data
}

// linkPlans maps a root set to its plan. The first successful walk of a
// root set records it; later walks (after a divergence) do not replace it,
// so the cache holds one plan per distinct root set the process has
// loaded — for the benchmark batteries, one.
var linkPlans sync.Map // planKey(roots) -> *linkPlan

func planKey(roots []string) string {
	if len(roots) == 1 {
		return roots[0]
	}
	return strings.Join(roots, "\x00")
}

// loadAll maps every transitive dylib dependency of roots and returns the
// resulting image table (on error, the table of the images loaded before
// the failure).
func loadAll(t *kernel.Thread, cs costs, roots []string) (*Images, error) {
	key := planKey(roots)
	if v, ok := linkPlans.Load(key); ok {
		return replay(t, cs, v.(*linkPlan))
	}
	p := &linkPlan{roots: roots}
	images := newImages(nil)
	if err := walk(t, cs, images, append([]string(nil), roots...), p); err != nil {
		return images, err
	}
	p.images = images
	for i := range p.steps {
		p.nsegs += len(p.steps[i].segs)
	}
	linkPlans.LoadOrStore(key, p)
	return images, nil
}

// walk loads the queue's libraries breadth first, skipping loaded ones,
// and appends each load to rec when rec is non-nil.
func walk(t *kernel.Thread, cs costs, images *Images, work []string, rec *linkPlan) error {
	k := t.Kernel()
	st := libsystem.ForTask(t.Task())
	for len(work) > 0 {
		path := work[0]
		work = work[1:]
		if images.Has(path) {
			continue
		}
		node, err := k.Root().Lookup(path)
		s, err := load(t, cs, st, images, path, node, err)
		if err != nil {
			return err
		}
		if rec != nil {
			rec.steps = append(rec.steps, *s)
		}
		work = append(work, s.deps...)
	}
	return nil
}

// replay loads p's images in order, validating each against the
// filesystem; on a divergence it finishes the load as walk would.
func replay(t *kernel.Thread, cs costs, p *linkPlan) (*Images, error) {
	k := t.Kernel()
	st := libsystem.ForTask(t.Task())
	// Room for every segment the plan maps, in one slab. Reserve maps
	// nothing: each segment's Map below still runs its MapHook.
	t.Task().Mem().Reserve(p.nsegs)
	r := newResolver(k, p)
	for i := range p.steps {
		s := &p.steps[i]
		node, err := r.lookup(i, s.path)
		if err != nil || !s.matches(node) {
			images := p.prefix(i)
			ns, err := load(t, cs, st, images, s.path, node, err)
			if err != nil {
				return images, err
			}
			return images, walk(t, cs, images, append(p.queueAfter(i), ns.deps...), nil)
		}
		chargeOpen(t, cs)
		if err := link(t, cs, st, s); err != nil {
			return p.prefix(i), err
		}
	}
	r.finish(k, p)
	return p.images, nil
}

// A planMemo is one kernel's memory of where a plan's paths resolve: the
// node each step's Lookup returned during a complete replay, stamped
// with the root filesystem's generation. A later replay on the same
// kernel takes a step's node from the memo instead of walking its path,
// but only while the root's Stamp still reads that generation and pure
// (no fault hook), checked before every step, since any charge may run
// another process that changes the tree. A memo is recorded only when
// every step's walk was plain (no symlink, no mount point), because
// those resolutions depend on state the generation does not cover.
// Without a hook a walk charges nothing and records nothing, so skipping
// it leaves every virtual-time effect of the replay in place; each step
// still checks its node's bytes (planStep.matches), which catches a
// SetData or WriteData rewrite. In every other case replay walks.
type planMemo struct {
	gen   uint64
	nodes []*vfs.Node
}

// memoExt names the kernel extension holding a kernel's plan memos,
// a map[*linkPlan]*planMemo. A kernel runs one process at a time, so the
// map needs no lock.
const memoExt = "dyld.linkmemo"

// memoOff disables plan memos (tests compare against walked replays).
var memoOff bool

// stamped is a root filesystem whose resolutions a memo can stand in
// for (vfs.FS and vfs.Overlay; see vfs.FS.Stamp).
type stamped interface {
	Stamp() (gen uint64, pure bool)
	LookupPlain(p string) (n *vfs.Node, err error, plain bool)
}

// resolver resolves one replay's step paths.
type resolver struct {
	root vfs.FileSystem
	// st is root when it is stamped; memo and rec need it.
	st stamped
	// memo is the kernel's memo of the plan, while it still holds.
	memo *planMemo
	// rec, when non-nil, collects this replay's nodes as a new memo of
	// generation gen; a lookup that was not plain ends the recording.
	rec []*vfs.Node
	gen uint64
}

func newResolver(k *kernel.Kernel, p *linkPlan) (r resolver) {
	r.root = k.Root()
	st, ok := r.root.(stamped)
	if !ok || memoOff {
		return r
	}
	r.st = st
	gen, pure := st.Stamp()
	if !pure {
		return r
	}
	if v, ok := k.Extension(memoExt); ok {
		if m := v.(map[*linkPlan]*planMemo)[p]; m != nil && m.gen == gen {
			r.memo = m
			return r
		}
	}
	r.rec, r.gen = make([]*vfs.Node, 0, len(p.steps)), gen
	return r
}

// lookup resolves step i's path: from the memo while it holds, else by
// a walk.
func (r *resolver) lookup(i int, path string) (*vfs.Node, error) {
	if r.memo != nil {
		if gen, pure := r.st.Stamp(); pure && gen == r.memo.gen {
			return r.memo.nodes[i], nil
		}
		r.memo = nil
	}
	if r.rec == nil {
		return r.root.Lookup(path)
	}
	n, err, plain := r.st.LookupPlain(path)
	if plain && err == nil {
		r.rec = append(r.rec, n)
	} else {
		r.rec = nil
	}
	return n, err
}

// finish keeps a complete recording as k's memo of p. It is stamped
// with the generation the recording started at, so a change made while
// it was taken leaves it stale from the start.
func (r *resolver) finish(k *kernel.Kernel, p *linkPlan) {
	if r.rec == nil {
		return
	}
	v, ok := k.Extension(memoExt)
	if !ok {
		v = map[*linkPlan]*planMemo{}
		k.SetExtension(memoExt, v)
	}
	v.(map[*linkPlan]*planMemo)[p] = &planMemo{gen: r.gen, nodes: r.rec}
}

// prefix returns a fresh table holding the plan's first i images.
func (p *linkPlan) prefix(i int) *Images {
	return newImages(append([]*LoadedImage(nil), p.images.list[:i]...))
}

// queueAfter rebuilds the walk's queue as it stood just after popping
// step i's path, before that image's dependencies were pushed. Host-side
// bookkeeping only: the entries it skips are the walk's dedup skips,
// which cost no virtual time.
func (p *linkPlan) queueAfter(i int) []string {
	work := append([]string(nil), p.roots...)
	loaded := make(map[string]bool, i)
	for j := 0; ; {
		path := work[0]
		work = work[1:]
		if loaded[path] {
			continue
		}
		if j == i {
			return work
		}
		loaded[path] = true
		work = append(work, p.steps[j].deps...)
		j++
	}
}

// load loads the library the walk found at path (node, or the lookup
// error lerr) into images.
func load(t *kernel.Thread, cs costs, st *libsystem.State, images *Images, path string, node *vfs.Node, lerr error) (*planStep, error) {
	s, err := parseStep(t, cs, path, node, lerr)
	if err != nil {
		return nil, err
	}
	if err := link(t, cs, st, s); err != nil {
		return nil, err
	}
	images.add(s.img)
	return s, nil
}

// chargeOpen charges opening a library and faulting in its load commands;
// dyld mmaps rather than reads, so only the metadata pages cost storage
// time.
func chargeOpen(t *kernel.Thread, cs costs) {
	t.Charge(t.Kernel().Device().Storage.OpLatency)
	t.Charge(cs.parse)
}

// parseStep derives one image load from the node found at path (or the
// lookup error), charging the open and parse.
func parseStep(t *kernel.Thread, cs costs, path string, node *vfs.Node, lerr error) (*planStep, error) {
	if lerr != nil {
		if tr := t.Kernel().Tracer(); tr != nil {
			tr.Count(trace.CounterDyldLoadErrors, 1)
		}
		return nil, fmt.Errorf("dyld: library not loaded: %s", path)
	}
	chargeOpen(t, cs)
	data := node.Data()
	f, perr := macho.ParseShared(data)
	if perr != nil || f.FileType != macho.TypeDylib {
		return nil, fmt.Errorf("dyld: %s is not a dylib", path)
	}
	s := &planStep{path: path, data: &data[0], n: len(data), deps: f.Dylibs}
	// Map segments at their full VM size — this is where the ~90 MB of an
	// iOS process's library footprint comes from.
	for _, seg := range f.Segments {
		size := uint64(seg.VMSize)
		if size < uint64(len(seg.Data)) {
			size = uint64(len(seg.Data))
		}
		if size != 0 {
			s.segs = append(s.segs, size)
		}
	}
	s.img, s.nsyms = buildImage(f, path)
	return s, nil
}

// link maps, binds and initializes one image: every virtual-time effect of
// a load past the open and parse.
func link(t *kernel.Thread, cs costs, st *libsystem.State, s *planStep) error {
	k := t.Kernel()
	for _, size := range s.segs {
		t.Charge(k.Costs().SegmentMap)
		if _, err := t.Task().Mem().Map(0, size, mem.ProtRead|mem.ProtExec, s.path, false); err != nil {
			if tr := k.Tracer(); tr != nil {
				tr.Count(trace.CounterDyldLoadErrors, 1)
			}
			return err
		}
	}
	// One bind charge per exported symbol. They stay separate calls: each
	// Charge is a preemption (and, under a Decider, decision) point.
	for i := 0; i < s.nsyms; i++ {
		t.Charge(cs.bindSym)
	}
	if tr := k.Tracer(); tr != nil {
		tr.Count(trace.CounterDyldBinds, uint64(len(s.img.Exports)))
		tr.Count(trace.CounterDyldImages, 1)
	}
	// Run the image initializer and register its teardown hooks: one
	// atexit handler and one pthread_atfork triple per library.
	t.Charge(cs.initImage)
	registerImageHandlers(st)
	return nil
}

// registerImageHandlers models the per-library callbacks dyld registers:
// "for each library, dyld registers a callback that is called on exit,
// resulting in the execution of 115 handlers on exit", plus the
// pthread_atfork callbacks iOS libraries install.
func registerImageHandlers(st *libsystem.State) { st.AtImage(imageHooks) }

// imageHooks is the one atexit handler and pthread_atfork triple every
// image registers. libSystem keeps consecutive registrations of it as one
// counted run, so an exec's ~115 registrations take no list entries of
// their own.
var imageHooks = &libsystem.ImageHooks{
	Exit:    atexitHandler,
	Prepare: atforkHandler,
	Parent:  atforkHandler,
	Child:   atforkHandler,
}

// atexitHandler and atforkHandler are the library hooks every image
// registers. They are shared functions, not closures over an exec's
// costs; each handler prices itself on the running thread's device, the
// device the registering exec was priced on.
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
	// images is the table every attach of this manifest installs.
	images *Images
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
	list := make([]*LoadedImage, 0, len(e.manifest.Images))
	for _, ci := range e.manifest.Images {
		img := &LoadedImage{Path: ci.Path, Exports: make(map[string]string, len(ci.Exports))}
		for _, sym := range ci.Exports {
			img.Exports[sym] = prog.SymbolKey(ci.Path, sym)
		}
		list = append(list, img)
	}
	e.images = newImages(list)
	manifestCache.Store(key, e)
	return e, true
}

// attachSharedCache maps the prelinked cache as a single submap region and
// returns its image table, without touching the filesystem per library.
// It returns nil when the cache is missing, undecodable or unmappable.
func attachSharedCache(t *kernel.Thread, cs costs) *Images {
	k := t.Kernel()
	node, err := k.Root().Lookup(SharedCachePath)
	if err != nil {
		return nil
	}
	e, ok := decodeManifest(node.Data())
	if !ok {
		return nil
	}
	t.Charge(cs.cacheAttach)
	r, merr := t.Task().Mem().Map(0, e.manifest.TotalBytes, mem.ProtRead|mem.ProtExec, "dyld_shared_cache", false)
	if merr != nil {
		return nil
	}
	if tr := k.Tracer(); tr != nil {
		tr.Count(trace.CounterDyldCacheAttach, 1)
		tr.Count(trace.CounterDyldImages, uint64(len(e.manifest.Images)))
	}
	r.Submap = true // nested map: fork never copies these PTEs
	st := libsystem.ForTask(t.Task())
	// Prelinking consolidates initializers and teardown hooks.
	groups := 8
	for i := 0; i < groups; i++ {
		t.Charge(cs.initImage)
		registerImageHandlers(st)
	}
	return e.images
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
