package mem

import (
	"bytes"
	"testing"
)

// Tests for the store states a private mapping passes through: bare (no
// store), untouched store, committed with a stored prefix, and full.

func TestForkBareRegionChildStaysZero(t *testing.T) {
	// A bare region forks to a bare region: the child's store is its own,
	// so the parent's first write after the fork must not reach it.
	parent := NewAddressSpace()
	r, err := parent.Map(0, 2*PageSize, ProtRead|ProtWrite, "heap", false)
	if err != nil {
		t.Fatal(err)
	}
	child, _ := parent.Fork()
	if err := parent.WriteAt(r.Base+PageSize, []byte("parent")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := child.ReadAt(r.Base+PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 6)) {
		t.Fatalf("child reads %q after the parent's first write, want zeros", got)
	}
	if c := child.Footprint(); c != 0 {
		t.Fatalf("child footprint = %d after the parent's write, want 0", c)
	}
}

func TestUnmappedBareRegionStoreHasNoRefs(t *testing.T) {
	// A region unmapped before its first touch has no store; asking for
	// one afterwards yields a store nothing maps, charged to no space.
	as := NewAddressSpace()
	r, _ := as.Map(0, PageSize, ProtRead|ProtWrite, "a", false)
	keep, _ := as.Map(0, PageSize, ProtRead|ProtWrite, "b", false)
	if err := as.Unmap(r.Base); err != nil {
		t.Fatal(err)
	}
	b := r.Backing()
	if b.Refs() != 0 {
		t.Fatalf("store of an unmapped bare region has %d refs, want 0", b.Refs())
	}
	b.Bytes()
	if got := as.Footprint(); got != 0 {
		t.Fatalf("touching an unmapped region's store charged %d bytes", got)
	}
	if keep.Backing().Refs() != 1 {
		t.Fatalf("mapped region's store has %d refs, want 1", keep.Backing().Refs())
	}
}

func TestReadPastLoadedPrefixIsZero(t *testing.T) {
	// Load stores only the file bytes; the rest of the segment reads as
	// zeros, across the prefix boundary and far past it, and a later
	// write beyond the prefix zero-fills the gap.
	as := NewAddressSpace()
	r, _ := as.Map(0, 4*PageSize, ProtRead|ProtWrite, "seg", false)
	r.Backing().Load([]byte("text"))
	if got := as.Footprint(); got != 4*PageSize {
		t.Fatalf("Load charged %d, want the whole segment (%d)", got, 4*PageSize)
	}
	got := make([]byte, 8)
	if err := as.ReadAt(r.Base, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte("text\x00\x00\x00\x00"); !bytes.Equal(got, want) {
		t.Fatalf("read across the prefix = %q, want %q", got, want)
	}
	if err := as.ReadAt(r.Base+3*PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("read past the prefix = %q, want zeros", got)
	}
	if err := as.WriteAt(r.Base+2*PageSize, []byte("far")); err != nil {
		t.Fatal(err)
	}
	if err := as.ReadAt(r.Base+PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("gap before a far write = %q, want zeros", got)
	}
}

func TestBytesIsFullSize(t *testing.T) {
	// Bytes extends whatever prefix is stored to the full store, with the
	// stored bytes in place and zeros after them.
	as := NewAddressSpace()
	r, _ := as.Map(0, 3*PageSize, ProtRead|ProtWrite, "seg", false)
	r.Backing().Load([]byte("head"))
	b := r.Backing().Bytes()
	if uint64(len(b)) != 3*PageSize {
		t.Fatalf("len(Bytes()) = %d, want %d", len(b), 3*PageSize)
	}
	if !bytes.HasPrefix(b, []byte("head")) || bytes.ContainsFunc(b[4:], func(r rune) bool { return r != 0 }) {
		t.Fatal("Bytes() lost the stored prefix or has non-zero bytes after it")
	}
	// Bare and commit-only stores too.
	for _, touch := range []func(*Region){func(*Region) {}, func(r *Region) { r.Backing().Commit() }} {
		r, _ := as.Map(0, 2*PageSize, ProtRead|ProtWrite, "other", false)
		touch(r)
		if n := len(r.Backing().Bytes()); n != 2*PageSize {
			t.Fatalf("len(Bytes()) = %d, want %d", n, 2*PageSize)
		}
	}
}

func TestCommitChargesWithoutHostBytes(t *testing.T) {
	// A commit-only touch is the footprint charge of a first touch with
	// no stored bytes: the space is charged, reads stay zero, and a fork
	// charges the child the same without copying anything.
	as := NewAddressSpace()
	r, _ := as.Map(0, 8*PageSize, ProtRead|ProtWrite, "[balloon]", false)
	b := r.Backing()
	b.Commit()
	if got := as.Footprint(); got != 8*PageSize {
		t.Fatalf("footprint after Commit = %d, want %d", got, 8*PageSize)
	}
	if b.data != nil {
		t.Fatalf("Commit stored %d host bytes, want none", len(b.data))
	}
	child, _ := as.Fork()
	if got := child.Footprint(); got != 8*PageSize {
		t.Fatalf("child footprint = %d, want %d", got, 8*PageSize)
	}
	if cb := child.Regions()[0].backing; cb == nil || cb.data != nil {
		t.Fatal("fork of a commit-only store did not give the child a committed store without host bytes")
	}
}

func TestUnmapClearsVacatedSlot(t *testing.T) {
	// The region table must keep no pointer to a region it no longer
	// holds: such a pointer pins the region, its store and the slab the
	// region came from.
	for _, victim := range []int{2, 1, 0} {
		as := NewAddressSpace()
		as.Reserve(3)
		var bases []uint64
		for i := 0; i < 3; i++ {
			r, err := as.Map(0, PageSize, ProtRead, "r", false)
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, r.Base)
		}
		if err := as.Unmap(bases[victim]); err != nil {
			t.Fatal(err)
		}
		if tail := as.regions[len(as.regions):cap(as.regions)]; tail[0] != nil {
			t.Fatalf("unmapping region %d left a pointer in the vacated slot", victim)
		}
	}
}

func TestReserveMapsNothing(t *testing.T) {
	// Reserve sets regions aside without mapping them: no MapHook call,
	// no footprint, and every Map still consults the hook once. Maps past
	// the reservation still work.
	as := NewAddressSpace()
	calls := 0
	as.MapHook = func(uint64, string) error { calls++; return nil }
	as.Reserve(2)
	if calls != 0 || len(as.Regions()) != 0 {
		t.Fatalf("Reserve called MapHook %d times and mapped %d regions", calls, len(as.Regions()))
	}
	for i := 0; i < 3; i++ {
		if _, err := as.Map(0, PageSize, ProtRead, "r", false); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 || len(as.Regions()) != 3 || len(as.slab) != 0 {
		t.Fatalf("3 Maps after Reserve(2): %d hook calls, %d regions, %d slab left", calls, len(as.Regions()), len(as.slab))
	}
}
