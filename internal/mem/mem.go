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
// The store is zero-fill-on-demand: no host memory is allocated until the
// first byte is actually read or written. Most simulated mappings — the
// ~90 MB of dylib text dyld maps on every iOS exec above all — are pure
// accounting (fork charges for their PTEs, nothing loads from them), and
// eagerly allocating + zeroing them dominated the host-side profile of
// the Fig. 5 battery.
type Backing struct {
	size uint64
	// data stays nil until materialize; untouched backings read as zeros.
	data []byte
	refs int
	// accounts holds one attribution record per address space mapping this
	// backing, in the order the spaces first mapped it: when the store
	// materializes, each space re-attributes its resident share (see
	// AddressSpace.recharge). Almost every backing has one or two.
	accounts []backingAccount
}

// privateMapping co-allocates a region with a fresh store and the store's
// first attribution record. Most mappings — every dyld segment, every
// private fork copy — get a store of their own that nothing else maps, so
// this is one allocation where there would be three.
type privateMapping struct {
	region  Region
	backing Backing
	account [1]backingAccount
}

// newPrivate returns a zeroed region over a fresh store of size bytes.
func newPrivate(size uint64) (*Region, *Backing) {
	m := &privateMapping{backing: Backing{size: size}}
	m.backing.accounts = m.account[:0]
	return &m.region, &m.backing
}

// NewBacking creates a zeroed backing store of size bytes. Host memory is
// not committed until first access.
func NewBacking(size uint64) *Backing {
	return &Backing{size: size}
}

// Size returns the store's length in bytes without materializing it.
func (b *Backing) Size() uint64 { return b.size }

// materialize commits the host memory on first access. Committing the
// store is the simulated zero-fill-on-demand fault: every address space
// mapping the backing re-attributes its resident share at this point, so
// the task that triggered the fault — and every task aliasing the store —
// sees its footprint rise at the same virtual instant.
func (b *Backing) materialize() []byte {
	if b.data == nil && b.size > 0 {
		b.data = make([]byte, b.size)
		// Indexed, not ranged: a FootprintHook may attach or detach
		// spaces on this backing while the loop runs.
		for i := 0; i < len(b.accounts); i++ {
			b.accounts[i].as.recharge(b)
		}
	}
	return b.data
}

// Bytes exposes the raw store (used by the GPU and compositor simulators),
// committing it if it was still zero-fill-on-demand.
func (b *Backing) Bytes() []byte { return b.materialize() }

// Refs reports how many regions currently alias this backing.
func (b *Backing) Refs() int { return b.refs }

// Region is one contiguous mapping in an address space.
type Region struct {
	// Base is the starting virtual address (page aligned).
	Base uint64
	// Size is the mapping length in bytes (page aligned).
	Size uint64
	// Prot is the access permission.
	Prot Prot
	// Name labels the mapping for /proc/maps-style dumps (binary path,
	// "[stack]", "[heap]", dylib path, ...).
	Name string
	// Shared marks the mapping as shared rather than private: fork children
	// alias the same Backing instead of copying.
	Shared bool
	// Submap marks a nested-map mapping (XNU's shared-region mechanism,
	// used by dyld's shared library cache): fork shares it without copying
	// any page-table entries, which is why the iPad's fork is fast despite
	// its 90 MB of mapped libraries (Section 6.2).
	Submap  bool
	backing *Backing
	// offset is the region's start within the backing store.
	offset uint64
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Base + r.Size }

// Pages returns the number of page-table entries this region occupies.
func (r *Region) Pages() uint64 { return PageCount(r.Size) }

// Backing returns the region's physical store.
func (r *Region) Backing() *Backing { return r.backing }

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
	// it maps. Zero-fill backings that were never touched contribute
	// nothing.
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
// counted only once the store has materialized. This is the jetsam
// ledger's per-task number.
func (as *AddressSpace) Footprint() uint64 { return as.footprint }

// recharge re-attributes this space's resident share of b: the mapped
// window capped at the backing size when the store is materialized, zero
// while it is still zero-fill. The delta is applied to the footprint and
// reported through FootprintHook.
func (as *AddressSpace) recharge(b *Backing) {
	i := b.account(as)
	if i < 0 {
		return
	}
	acct := &b.accounts[i]
	var want uint64
	if b.data != nil {
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
	as.regions = append(as.regions, nil)
	copy(as.regions[i+1:], as.regions[i:])
	as.regions[i] = r
	r.backing.refs++
	as.attach(r)
}

// Map creates a new mapping. base==0 requests automatic placement. size is
// rounded up to a page boundary. A fresh zeroed backing is allocated.
func (as *AddressSpace) Map(base, size uint64, prot Prot, name string, shared bool) (*Region, error) {
	return as.MapBacking(base, size, prot, name, shared, nil, 0)
}

// MapBacking creates a mapping over an existing backing store (shared
// memory, IOSurface, Mach OOL transfer). backing==nil allocates a fresh
// store. offset is the region's start within the backing.
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
	var r *Region
	if backing == nil {
		r, backing = newPrivate(size)
		offset = 0
	} else if offset+size > backing.size {
		return nil, fmt.Errorf("mem: mapping %q exceeds backing (%d+%d > %d)", name, offset, size, backing.size)
	} else {
		r = new(Region)
	}
	*r = Region{Base: base, Size: size, Prot: prot, Name: name, Shared: shared, backing: backing, offset: offset}
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
		as.regions = append(as.regions[:i], as.regions[i+1:]...)
		r.backing.refs--
		as.detach(r)
		return nil
	}
	return fmt.Errorf("mem: unmap: no region at 0x%x", base)
}

// UnmapAll drops every mapping (exec, exit). The footprint returns to
// exactly zero: every attribution window closes with its mapping.
func (as *AddressSpace) UnmapAll() {
	for _, r := range as.regions {
		r.backing.refs--
		as.detach(r)
	}
	as.regions = nil
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
			data := r.backing.materialize()
			copy(data[off:off+n], buf[:n])
		} else if r.backing.data == nil {
			// Untouched zero-fill backing: the read sees zeros without
			// committing the store.
			clear(buf[:n])
		} else {
			copy(buf[:n], r.backing.data[off:off+n])
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
// for them). Private regions are deep-copied; shared regions alias the same
// backing, but their PTEs are still copied.
//
// Footprint re-attribution follows the copy: a materialized private store
// is split — the parent keeps its charge on the old backing, the child is
// charged for its fresh copy — while shared and submap stores attribute
// the child's window on the common backing. FootprintHook is not
// propagated (the clone's owner rebinds it and adopts the accumulated
// footprint); MapHook is, matching the fork semantics of rlimit state.
func (as *AddressSpace) Fork() (*AddressSpace, uint64) {
	child := NewAddressSpace()
	child.nextAuto = as.nextAuto
	child.MapHook = as.MapHook
	child.regions = make([]*Region, 0, len(as.regions))
	var ptes uint64
	for _, r := range as.regions {
		if !r.Submap {
			ptes += r.Pages()
		}
		var nr *Region
		b := r.backing
		if r.Shared || r.Submap {
			nr = new(Region)
		} else {
			// The simulation copies eagerly rather than COW; the PTE count,
			// which is what the fork latency model charges for, is the same.
			// An untouched zero-fill parent store stays uncommitted in the
			// child too — there is nothing to copy.
			nr, b = newPrivate(r.backing.size)
			if r.backing.data != nil {
				copy(b.materialize(), r.backing.data)
			}
		}
		*nr = Region{Base: r.Base, Size: r.Size, Prot: r.Prot, Name: r.Name, Shared: r.Shared, Submap: r.Submap, backing: b, offset: r.offset}
		child.insert(nr)
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
