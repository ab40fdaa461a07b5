// Package mem implements simulated virtual memory: per-task address spaces
// made of mapped regions with page-granular accounting.
//
// The page accounting is what makes the paper's fork numbers reproducible:
// an iOS process whose dyld has mapped 115 dylibs (~90 MB) pays for copying
// every page-table entry on fork, which is where ~1 ms of the 3.75 ms iOS
// fork+exit latency comes from (Section 6.2).
package mem

import (
	"fmt"
	"slices"
	"sort"
)

// PageSize is the simulated page size (4 KB, as on ARM Linux and XNU).
const PageSize = 4096

// PageCount returns the number of pages needed to hold size bytes.
func PageCount(size uint64) uint64 {
	return (size + PageSize - 1) / PageSize
}

// PageAlign rounds size up to a page boundary.
func PageAlign(size uint64) uint64 {
	return PageCount(size) * PageSize
}

// Prot is a bitmask of region access permissions.
type Prot uint8

const (
	// ProtRead allows loads.
	ProtRead Prot = 1 << iota
	// ProtWrite allows stores.
	ProtWrite
	// ProtExec allows instruction fetch.
	ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Backing is the physical store behind one or more regions. Shared mappings
// (Mach OOL memory, IOSurfaces, gralloc buffers) alias the same Backing.
//
// A store is zero-fill-on-demand. It starts untouched: it reads as zeros
// and is charged to no footprint. Its first touch — a write, Load, Commit
// or Bytes — commits it, the simulated zero-fill fault: from then on
// every space mapping it is charged its window, capped at the store's
// size. A committed store still holds host bytes only for the prefix
// that has been stored into; everything past that prefix reads as zeros.
// Most mappings — the ~90 MB of dylib text dyld maps on every iOS exec
// above all — are pure accounting (fork charges for their PTEs, nothing
// loads from them), so a private mapping gets no store at all until it
// is touched (see Region.Backing).
type Backing struct {
	size uint64
	// data is the stored prefix; bytes past len(data) read as zeros. Its
	// spare capacity is never written, so it stays zeroed for growth.
	data []byte
	// committed is set at first touch, the point the store is charged.
	committed bool
	refs      int
	// accounts holds one attribution record per address space mapping this
	// backing, in the order the spaces first mapped it: when the store
	// commits, each space re-attributes its resident share (see
	// AddressSpace.recharge). Almost every backing has one or two.
	accounts []backingAccount
}

// privateStore co-allocates a private mapping's store with the store's
// first attribution record.
type privateStore struct {
	backing Backing
	account [1]backingAccount
}

// newPrivateStore returns an untouched store of size bytes with room for
// one account.
func newPrivateStore(size uint64) *Backing {
	p := &privateStore{backing: Backing{size: size}}
	p.backing.accounts = p.account[:0]
	return &p.backing
}

// NewBacking creates a zeroed backing store of size bytes. Host memory is
// not committed until first access.
func NewBacking(size uint64) *Backing {
	return &Backing{size: size}
}

// Size returns the store's length in bytes without committing it.
func (b *Backing) Size() uint64 { return b.size }

// Commit takes the store's zero-fill fault without storing anything: every
// address space mapping the backing re-attributes its resident share at
// this point, so the task that touched it — and every task aliasing the
// store — sees its footprint rise at the same virtual instant. A caller
// that touches memory only to be charged for it (a cache ballast) needs
// nothing more; no host bytes are allocated.
func (b *Backing) Commit() {
	if b.committed || b.size == 0 {
		return
	}
	b.committed = true
	// Indexed, not ranged: a FootprintHook may attach or detach spaces on
	// this backing while the loop runs.
	for i := 0; i < len(b.accounts); i++ {
		b.accounts[i].as.recharge(b)
	}
}

// prefix commits the store and returns its stored prefix, extended with
// zeros to at least n bytes (n <= size). Growth at least doubles the
// capacity, so a run of extending writes copies the prefix O(log size)
// times.
func (b *Backing) prefix(n uint64) []byte {
	b.Commit()
	if n <= uint64(len(b.data)) {
		return b.data
	}
	if n <= uint64(cap(b.data)) {
		b.data = b.data[:n]
		return b.data
	}
	data := make([]byte, n, min(max(n, 2*uint64(cap(b.data))), b.size))
	copy(data, b.data)
	b.data = data
	return data
}

// Load stores src at the start of the store, committing it. Only src's
// bytes take host memory: the rest of the store keeps reading as zeros.
// This is how a loader fills a segment whose file size is smaller than
// its VM size.
func (b *Backing) Load(src []byte) {
	n := min(uint64(len(src)), b.size)
	copy(b.prefix(n), src[:n])
}

// Bytes exposes the raw store (used by the GPU and compositor simulators),
// committing it and extending its host bytes to the full size. The slice
// stays valid: a full-size prefix never moves.
func (b *Backing) Bytes() []byte { return b.prefix(b.size) }

// read copies the store's bytes at off into buf. Bytes past the stored
// prefix, and every byte of a nil (never touched) store, read as zeros.
func (b *Backing) read(off uint64, buf []byte) {
	n := 0
	if b != nil && off < uint64(len(b.data)) {
		n = copy(buf, b.data[off:])
	}
	clear(buf[n:])
}

// Refs reports how many regions currently alias this backing.
func (b *Backing) Refs() int { return b.refs }

// Region is one contiguous mapping in an address space.
type Region struct {
	// Base is the starting virtual address (page aligned).
	Base uint64
	// Size is the mapping length in bytes (page aligned).
	Size uint64
	// Name labels the mapping for /proc/maps-style dumps (binary path,
	// "[stack]", "[heap]", dylib path, ...).
	Name string
	// Prot is the access permission.
	Prot Prot
	// Shared marks the mapping as shared rather than private: fork children
	// alias the same Backing instead of copying.
	Shared bool
	// Submap marks a nested-map mapping (XNU's shared-region mechanism,
	// used by dyld's shared library cache): fork shares it without copying
	// any page-table entries, which is why the iPad's fork is fast despite
	// its 90 MB of mapped libraries (Section 6.2).
	Submap bool
	// backing is the region's store. A private mapping has none until its
	// first touch (a bare region): it stands for a fresh, untouched
	// zero-fill store of Size bytes that only this region maps.
	backing *Backing
	// offset is the region's start within the backing store (0 for a
	// bare region).
	offset uint64
	// as is the space the region is mapped in, nil once it is unmapped;
	// a bare region's store is attributed to it when created.
	as *AddressSpace
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Base + r.Size }

// Pages returns the number of page-table entries this region occupies.
func (r *Region) Pages() uint64 { return PageCount(r.Size) }

// Backing returns the region's physical store. A bare region gets its
// store here: the untouched zero-fill store it stood for, attributed to
// the region's space if it is still mapped (with nothing charged until
// the store is touched) and with no references if it is not.
func (r *Region) Backing() *Backing {
	if r.backing == nil {
		b := newPrivateStore(r.Size)
		r.backing = b
		if r.as != nil {
			b.refs = 1
			r.as.attach(r)
		}
	}
	return r.backing
}

func (r *Region) String() string {
	return fmt.Sprintf("%08x-%08x %s %s", r.Base, r.End(), r.Prot, r.Name)
}

// ErrFault is the simulated memory access fault (SIGSEGV/SIGBUS source).
type ErrFault struct {
	// Addr is the faulting address.
	Addr uint64
	// Write indicates a store fault; otherwise a load fault.
	Write bool
}

func (e *ErrFault) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: fault: invalid %s at 0x%x", kind, e.Addr)
}

// backingAccount is one address space's attribution record for a backing:
// how many mapped window bytes the space holds over it, and how many
// resident bytes are currently charged to the space for it. Attribution is
// per-mapping-window, capped at the backing size: two tasks mapping one
// Backing each carry their own window, and one task aliasing the same
// store twice (IOSurface, Mach OOL) is charged the store once, never twice.
type backingAccount struct {
	as      *AddressSpace
	window  uint64
	charged uint64
}

// account returns the index of as's attribution record on b, or -1.
func (b *Backing) account(as *AddressSpace) int {
	for i := range b.accounts {
		if b.accounts[i].as == as {
			return i
		}
	}
	return -1
}

// AddressSpace is a task's virtual memory map.
type AddressSpace struct {
	regions []*Region // sorted by Base
	// slab holds the zeroed regions Reserve set aside for coming Maps.
	slab []Region
	// nextAuto is the next address the allocator hands out for
	// address-unspecified mappings.
	nextAuto uint64
	// MapHook, when non-nil, is consulted before any new mapping is
	// created; a non-nil error fails the Map like an allocation failure
	// (fault injection, rlimit enforcement). Fork propagates the hook to
	// children.
	MapHook func(size uint64, name string) error
	// footprint is the resident bytes currently attributed to this space:
	// the sum of charged bytes over this space's accounts on the backings
	// it maps. Zero-fill stores that were never touched (and bare
	// regions, which have no store yet) contribute nothing.
	footprint uint64
	// FootprintHook, when non-nil, observes every footprint change (delta
	// in bytes, negative on unmap). The kernel threads memorystatus
	// watermark evaluation through it. Fork deliberately does not copy the
	// hook: the child's owner rebinds it and adopts the initial footprint.
	FootprintHook func(delta int64)
}

// mmapBase is where automatic placement starts (above typical text bases).
const mmapBase = 0x4000_0000

// NewAddressSpace creates an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{nextAuto: mmapBase}
}

// Regions returns the mappings in address order. The slice is shared; do
// not mutate.
func (as *AddressSpace) Regions() []*Region { return as.regions }

// PageCount returns the total number of mapped pages — the number of PTEs a
// fork must copy.
func (as *AddressSpace) PageCount() uint64 {
	var n uint64
	for _, r := range as.regions {
		n += r.Pages()
	}
	return n
}

// PTECount returns the pages whose table entries the process itself owns:
// submap (shared-region) pages are excluded, matching what fork copies and
// exec tears down.
func (as *AddressSpace) PTECount() uint64 {
	var n uint64
	for _, r := range as.regions {
		if !r.Submap {
			n += r.Pages()
		}
	}
	return n
}

// MappedBytes returns the total mapped size.
func (as *AddressSpace) MappedBytes() uint64 {
	var n uint64
	for _, r := range as.regions {
		n += r.Size
	}
	return n
}

// Footprint returns the resident bytes attributed to this space: for each
// distinct backing, the mapped window bytes capped at the backing size,
// counted only once the store has committed. This is the jetsam
// ledger's per-task number.
func (as *AddressSpace) Footprint() uint64 { return as.footprint }

// recharge re-attributes this space's resident share of b: the mapped
// window capped at the backing size once the store has committed, zero
// while it is still untouched. The delta is applied to the footprint and
// reported through FootprintHook.
func (as *AddressSpace) recharge(b *Backing) {
	i := b.account(as)
	if i < 0 {
		return
	}
	acct := &b.accounts[i]
	var want uint64
	if b.committed {
		want = acct.window
		if want > b.size {
			want = b.size
		}
	}
	if want == acct.charged {
		return
	}
	delta := int64(want) - int64(acct.charged)
	acct.charged = want
	as.footprint = uint64(int64(as.footprint) + delta)
	if as.FootprintHook != nil {
		as.FootprintHook(delta)
	}
}

// attach opens or grows this space's attribution window over r's backing.
func (as *AddressSpace) attach(r *Region) {
	b := r.backing
	i := b.account(as)
	if i < 0 {
		i = len(b.accounts)
		b.accounts = append(b.accounts, backingAccount{as: as})
	}
	b.accounts[i].window += r.Size
	as.recharge(b)
}

// detach shrinks this space's attribution window over r's backing,
// releasing the account when the last window closes. The account is
// looked up again after recharge, since FootprintHook may run other code.
func (as *AddressSpace) detach(r *Region) {
	b := r.backing
	i := b.account(as)
	if i < 0 {
		return
	}
	b.accounts[i].window -= r.Size
	as.recharge(b)
	if i = b.account(as); i >= 0 && b.accounts[i].window == 0 {
		b.accounts = slices.Delete(b.accounts, i, i+1)
	}
}

// find returns the region containing addr, or nil.
func (as *AddressSpace) find(addr uint64) *Region {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].End() > addr
	})
	if i < len(as.regions) && as.regions[i].Base <= addr {
		return as.regions[i]
	}
	return nil
}

// FindRegion returns the region containing addr, or nil.
func (as *AddressSpace) FindRegion(addr uint64) *Region { return as.find(addr) }

// FindByName returns the first region with the given name, or nil.
func (as *AddressSpace) FindByName(name string) *Region {
	for _, r := range as.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// overlaps reports whether [base, base+size) intersects any mapping. The
// regions are sorted and disjoint, so the only candidate is the first one
// ending above base.
func (as *AddressSpace) overlaps(base, size uint64) bool {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].End() > base
	})
	return i < len(as.regions) && as.regions[i].Base < base+size
}

// insert adds r keeping address order.
func (as *AddressSpace) insert(r *Region) {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].Base > r.Base
	})
	as.regions = slices.Insert(as.regions, i, r)
	as.link(r)
}

// link makes r one of this space's mappings: a store-backed region takes
// a reference on its store and opens its attribution window; a bare
// region's implicit store is referenced and attributed only by it.
func (as *AddressSpace) link(r *Region) {
	r.as = as
	if r.backing != nil {
		r.backing.refs++
		as.attach(r)
	}
}

// release undoes link for a region leaving the space.
func (as *AddressSpace) release(r *Region) {
	if b := r.backing; b != nil {
		b.refs--
		as.detach(r)
	}
	r.as = nil
}

// Reserve prepares the space for n more mappings: the region table gets
// room for them, and their regions come from one slab instead of one
// allocation each. It maps nothing and does not consult MapHook; Maps
// past the n, or after UnmapAll, allocate their regions one by one.
func (as *AddressSpace) Reserve(n int) {
	as.regions = slices.Grow(as.regions, n)
	as.slab = make([]Region, n)
}

// newRegion returns a zeroed region, from the slab while it lasts.
func (as *AddressSpace) newRegion() *Region {
	if len(as.slab) == 0 {
		return new(Region)
	}
	r := &as.slab[0]
	as.slab = as.slab[1:]
	return r
}

// Map creates a new mapping. base==0 requests automatic placement. size is
// rounded up to a page boundary. The mapping is private and bare: it gets
// a zero-fill store of its own at first touch, and costs nothing but its
// Region until then.
func (as *AddressSpace) Map(base, size uint64, prot Prot, name string, shared bool) (*Region, error) {
	return as.MapBacking(base, size, prot, name, shared, nil, 0)
}

// MapBacking creates a mapping over an existing backing store (shared
// memory, IOSurface, Mach OOL transfer). backing==nil makes a bare region
// over a store of its own, created at first touch; offset is then
// ignored. Otherwise offset is the region's start within the backing.
func (as *AddressSpace) MapBacking(base, size uint64, prot Prot, name string, shared bool, backing *Backing, offset uint64) (*Region, error) {
	if as.MapHook != nil {
		if err := as.MapHook(size, name); err != nil {
			return nil, err
		}
	}
	if size == 0 {
		return nil, fmt.Errorf("mem: zero-size mapping %q", name)
	}
	size = PageAlign(size)
	if base == 0 {
		base = as.nextAuto
		for as.overlaps(base, size) {
			base += size
		}
		as.nextAuto = base + size
	} else if base%PageSize != 0 {
		return nil, fmt.Errorf("mem: unaligned base 0x%x for %q", base, name)
	} else if as.overlaps(base, size) {
		return nil, fmt.Errorf("mem: mapping %q at 0x%x overlaps existing region", name, base)
	}
	if backing == nil {
		offset = 0
	} else if offset+size > backing.size {
		return nil, fmt.Errorf("mem: mapping %q exceeds backing (%d+%d > %d)", name, offset, size, backing.size)
	}
	r := as.newRegion()
	*r = Region{Base: base, Size: size, Name: name, Prot: prot, Shared: shared, backing: backing, offset: offset}
	as.insert(r)
	return r, nil
}

// Unmap removes the mapping starting exactly at base.
func (as *AddressSpace) Unmap(base uint64) error {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].Base >= base
	})
	if i < len(as.regions) && as.regions[i].Base == base {
		r := as.regions[i]
		// slices.Delete zeroes the vacated tail slot, so the table keeps
		// no hidden pointer to a region (or the slab it came from).
		as.regions = slices.Delete(as.regions, i, i+1)
		as.release(r)
		return nil
	}
	return fmt.Errorf("mem: unmap: no region at 0x%x", base)
}

// UnmapAll drops every mapping (exec, exit). The footprint returns to
// exactly zero: every attribution window closes with its mapping.
func (as *AddressSpace) UnmapAll() {
	for _, r := range as.regions {
		as.release(r)
	}
	as.regions = nil
	as.slab = nil
	as.nextAuto = mmapBase
}

// ReadAt copies len(buf) bytes from vaddr, faulting on unmapped or
// unreadable memory. Reads may span adjacent regions.
func (as *AddressSpace) ReadAt(vaddr uint64, buf []byte) error {
	return as.access(vaddr, buf, false)
}

// WriteAt copies buf to vaddr, faulting on unmapped or read-only memory.
func (as *AddressSpace) WriteAt(vaddr uint64, buf []byte) error {
	return as.access(vaddr, buf, true)
}

func (as *AddressSpace) access(vaddr uint64, buf []byte, write bool) error {
	for len(buf) > 0 {
		r := as.find(vaddr)
		if r == nil {
			return &ErrFault{Addr: vaddr, Write: write}
		}
		if write && r.Prot&ProtWrite == 0 {
			return &ErrFault{Addr: vaddr, Write: true}
		}
		if !write && r.Prot&ProtRead == 0 {
			return &ErrFault{Addr: vaddr, Write: false}
		}
		off := r.offset + (vaddr - r.Base)
		n := copyLen(uint64(len(buf)), r.End()-vaddr)
		if write {
			data := r.Backing().prefix(off + n)
			copy(data[off:off+n], buf[:n])
		} else {
			// A read never commits: past the stored prefix, or on a bare
			// region, it sees zeros.
			r.backing.read(off, buf[:n])
		}
		buf = buf[n:]
		vaddr += n
	}
	return nil
}

func copyLen(want, avail uint64) uint64 {
	if want < avail {
		return want
	}
	return avail
}

// Fork clones the address space for a child task, returning the clone and
// the number of page-table entries copied (the caller charges PTE-copy time
// for them). Shared and submap regions alias the parent's backing, but
// their PTEs are still copied. A private region is copied: the simulation
// copies eagerly rather than COW, and the PTE count, which is what the
// fork latency model charges for, is the same. An untouched private
// region (bare, or over a store that never committed) gives the child a
// bare region, exactly the fresh zero-fill store it stands for; a
// committed one gives the child a committed store holding a copy of the
// stored prefix. A bare shared or submap region gets its store at its
// first fork, for both sides to alias. The child's regions come from one
// slab, so fork allocates per committed private store, not per region.
//
// Footprint re-attribution follows the copy: a committed private store
// is split — the parent keeps its charge on the old backing, the child is
// charged for its fresh copy — while shared and submap stores attribute
// the child's window on the common backing. FootprintHook is not
// propagated (the clone's owner rebinds it and adopts the accumulated
// footprint); MapHook is, matching the fork semantics of rlimit state.
func (as *AddressSpace) Fork() (*AddressSpace, uint64) {
	child := &AddressSpace{nextAuto: as.nextAuto, MapHook: as.MapHook}
	child.regions = make([]*Region, len(as.regions))
	slab := make([]Region, len(as.regions))
	var ptes uint64
	for i, r := range as.regions {
		if !r.Submap {
			ptes += r.Pages()
		}
		nr := &slab[i]
		*nr = Region{Base: r.Base, Size: r.Size, Name: r.Name, Prot: r.Prot, Shared: r.Shared, Submap: r.Submap}
		switch b := r.backing; {
		case r.Shared || r.Submap:
			// Both sides alias one store, so a bare parent region gets
			// its store now.
			nr.backing, nr.offset = r.Backing(), r.offset
		case b != nil && b.committed:
			nb := newPrivateStore(b.size)
			nb.committed = true
			nb.data = slices.Clone(b.data)
			nr.backing, nr.offset = nb, r.offset
		}
		// The parent's table is in address order, so the child's is too.
		child.regions[i] = nr
		child.link(nr)
	}
	return child, ptes
}

// Maps renders a /proc/pid/maps-style listing.
func (as *AddressSpace) Maps() string {
	out := ""
	for _, r := range as.regions {
		out += r.String() + "\n"
	}
	return out
}
