package mem

import (
	"math/rand"
	"testing"
)

// TestFootprintOracle checks the footprint ledger against a reference
// written from scratch: a space's footprint is, for each distinct backing
// it maps, the sum of its window sizes over that backing capped at the
// backing size, counted only once the backing has committed. A seeded
// random sequence of maps (bare regions), aliasing maps, forks, unmaps
// and first touches of every kind (a write, a prefix Load, a commit-only
// touch, Bytes) runs over a few spaces; after every step each space's
// Footprint() and the running sum of its FootprintHook deltas must equal
// the reference recomputed from its region list, and every store's
// reference count must equal the number of regions mapping it.
func TestFootprintOracle(t *testing.T) {
	seen := make(map[string]int)
	for seed := int64(1); seed <= 24; seed++ {
		runFootprintOracle(t, seed, 300, seen)
	}
	// The sequences must reach the case the per-space accounts exist for,
	// one committed store charged to several spaces at once, and fork
	// every state a private store can be in.
	for _, kind := range []string{"shared-commit", "fork-bare", "fork-untouched-store", "fork-commit-only", "fork-prefix", "fork-full"} {
		if seen[kind] == 0 {
			t.Errorf("no step reached %s", kind)
		}
	}
}

// referenceFootprint recomputes a space's footprint from its regions
// alone, independently of the attribution records the ledger keeps. It
// reads each region's store field directly: Region.Backing would create
// the store of a bare region and so change the state under test. A bare
// region (nil store) is untouched and charges nothing.
func referenceFootprint(as *AddressSpace) uint64 {
	window := make(map[*Backing]uint64)
	for _, r := range as.Regions() {
		if r.backing != nil {
			window[r.backing] += r.Size
		}
	}
	var total uint64
	for b, w := range window {
		if b.committed {
			total += min(w, b.Size())
		}
	}
	return total
}

type oracleSpace struct {
	as      *AddressSpace
	hookSum int64
}

func (s *oracleSpace) watch() {
	s.as.FootprintHook = func(d int64) { s.hookSum += d }
}

// runFootprintOracle runs one seeded sequence, counting in seen the steps
// that ended with a committed backing mapped by more than one space
// ("shared-commit") and the private stores forked in each state.
func runFootprintOracle(t *testing.T, seed int64, steps int, seen map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	first := &oracleSpace{as: NewAddressSpace()}
	first.watch()
	spaces := []*oracleSpace{first}
	pick := func() *oracleSpace { return spaces[rng.Intn(len(spaces))] }
	// anyRegion returns a random region of any space, or nil.
	anyRegion := func() *Region {
		s := pick()
		if rs := s.as.Regions(); len(rs) > 0 {
			return rs[rng.Intn(len(rs))]
		}
		return nil
	}
	for step := 0; step < steps; step++ {
		var op string
		switch rng.Intn(10) {
		case 0, 1:
			op = "map"
			pages := uint64(1 + rng.Intn(6))
			if _, err := pick().as.Map(0, pages*PageSize, ProtRead|ProtWrite, "anon", rng.Intn(3) == 0); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		case 2:
			// Alias part of an existing store, from the same space or
			// another one (IOSurface, Mach OOL).
			op = "alias"
			r := anyRegion()
			if r == nil {
				continue
			}
			b := r.Backing()
			bpages := b.Size() / PageSize
			off := uint64(rng.Intn(int(bpages)))
			pages := uint64(1 + rng.Intn(int(bpages-off)))
			if _, err := pick().as.MapBacking(0, pages*PageSize, ProtRead|ProtWrite, "alias", true, b, off*PageSize); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		case 3:
			if len(spaces) >= 5 {
				continue
			}
			op = "fork"
			parent := pick().as
			for _, r := range parent.Regions() {
				if !r.Shared {
					seen["fork-"+storeState(r)]++
				}
			}
			child, _ := parent.Fork()
			// Fork does not carry the hook: the new owner adopts the
			// child's initial footprint and watches deltas from there.
			cs := &oracleSpace{as: child, hookSum: int64(referenceFootprint(child))}
			cs.watch()
			spaces = append(spaces, cs)
		case 4:
			op = "unmap"
			s := pick()
			if rs := s.as.Regions(); len(rs) > 0 {
				if err := s.as.Unmap(rs[rng.Intn(len(rs))].Base); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		case 5:
			if rng.Intn(3) != 0 {
				continue
			}
			op = "unmap-all"
			pick().as.UnmapAll()
		case 6:
			op = "touch"
			if r := anyRegion(); r != nil {
				r.Backing().Bytes()
			}
		case 8:
			op = "load"
			if r := anyRegion(); r != nil {
				src := make([]byte, 1+rng.Intn(int(r.Size)))
				rng.Read(src)
				r.Backing().Load(src)
			}
		case 9:
			op = "commit"
			if r := anyRegion(); r != nil {
				r.Backing().Commit()
			}
		case 7:
			op = "write"
			s := pick()
			if rs := s.as.Regions(); len(rs) > 0 {
				r := rs[rng.Intn(len(rs))]
				if err := s.as.WriteAt(r.Base+uint64(rng.Intn(int(r.Size))), []byte{1}); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		refs := make(map[*Backing]int)
		holders := make(map[*Backing]map[*AddressSpace]bool)
		for i, s := range spaces {
			want := referenceFootprint(s.as)
			if got := s.as.Footprint(); got != want {
				t.Fatalf("seed %d step %d (%s): space %d footprint %d, reference %d", seed, step, op, i, got, want)
			}
			if s.hookSum != int64(want) {
				t.Fatalf("seed %d step %d (%s): space %d hook deltas sum to %d, reference %d", seed, step, op, i, s.hookSum, want)
			}
			for _, r := range s.as.Regions() {
				b := r.backing
				if b == nil {
					continue
				}
				refs[b]++
				if holders[b] == nil {
					holders[b] = make(map[*AddressSpace]bool)
				}
				holders[b][s.as] = true
			}
		}
		for b, h := range holders {
			if b.committed && len(h) > 1 {
				seen["shared-commit"]++
				break
			}
		}
		for b, n := range refs {
			if b.Refs() != n {
				t.Fatalf("seed %d step %d (%s): backing has %d refs, %d regions map it", seed, step, op, b.Refs(), n)
			}
		}
	}
}

// storeState names the state of r's store without changing it.
func storeState(r *Region) string {
	b := r.backing
	switch {
	case b == nil:
		return "bare"
	case !b.committed:
		return "untouched-store"
	case len(b.data) == 0:
		return "commit-only"
	case uint64(len(b.data)) < b.size:
		return "prefix"
	}
	return "full"
}
