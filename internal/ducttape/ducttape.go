// Package ducttape implements Cider's compile-time code adaptation layer
// (Section 4.2): the mechanism that lets unmodified foreign (XNU) kernel
// source compile into the domestic (Linux) kernel.
//
// Duct tape has two halves, both implemented here:
//
//   - The *link* half: three coding zones (domestic, foreign, duct tape)
//     with enforced visibility rules — domestic code cannot reference
//     foreign symbols and vice versa; both may reference duct tape symbols;
//     duct tape may reference everything. Symbol conflicts between foreign
//     and domestic definitions are detected and automatically remapped to
//     unique names, and unresolved foreign externals are reported as the
//     work list for the duct tape zone ("more complicated external foreign
//     dependencies require some implementation effort").
//
//   - The *adaptation* half (env.go): runtime shims translating the foreign
//     kernel's APIs — locking, memory allocation, list management, process
//     control — onto domestic kernel primitives, so foreign subsystems
//     (internal/xnu: Mach IPC, pthread support; internal/iokit: I/O Kit)
//     run as first-class members of the domestic kernel.
package ducttape

import (
	"fmt"
	"sort"
)

// Zone is a coding zone within the combined kernel image.
type Zone int

const (
	// Domestic is unmodified domestic (Linux) kernel code.
	Domestic Zone = iota
	// Foreign is unmodified foreign (XNU) kernel code.
	Foreign
	// Tape is the duct tape adaptation zone, visible to both.
	Tape
)

func (z Zone) String() string {
	switch z {
	case Domestic:
		return "domestic"
	case Foreign:
		return "foreign"
	case Tape:
		return "ducttape"
	}
	return fmt.Sprintf("zone(%d)", int(z))
}

// Unit is one compilation unit: a named source file with the symbols it
// defines and the external symbols it references.
type Unit struct {
	// Name is the source path (e.g. "xnu/osfmk/ipc/ipc_port.c").
	Name string
	// Zone is the unit's coding zone.
	Zone Zone
	// Defines lists symbols the unit exports.
	Defines []string
	// References lists external symbols the unit consumes.
	References []string
}

// Remap records one automatic symbol rename.
type Remap struct {
	// Symbol is the original foreign symbol name.
	Symbol string
	// NewName is the conflict-free name it was remapped to.
	NewName string
	// ConflictsWith names the domestic unit defining the clashing symbol.
	ConflictsWith string
}

// ErrZoneViolation reports a reference that crosses zones illegally.
type ErrZoneViolation struct {
	Unit   string
	Symbol string
	// From and To are the referencing and defining zones.
	From, To Zone
}

func (e *ErrZoneViolation) Error() string {
	return fmt.Sprintf("ducttape: %s (%s zone) references %q defined in %s zone",
		e.Unit, e.From, e.Symbol, e.To)
}

// ErrDuplicate reports two units in compatible zones defining one symbol.
type ErrDuplicate struct {
	Symbol        string
	First, Second string
}

func (e *ErrDuplicate) Error() string {
	return fmt.Sprintf("ducttape: symbol %q defined by both %s and %s",
		e.Symbol, e.First, e.Second)
}

// Image is a linked kernel image: the result of duct-taping foreign units
// into the domestic kernel.
type Image struct {
	units []Unit
	// owner maps a (possibly remapped) symbol to its defining unit index.
	owner map[string]int
	// remaps records every automatic conflict rename.
	remaps []Remap
	// unresolved maps a unit name to foreign externals that no zone
	// defines — the duct tape implementation work list.
	unresolved map[string][]string
}

// Link combines units into a kernel image, enforcing the three-zone
// discipline:
//
//  1. Distinct zones are created (each unit declares its zone).
//  2. External symbols and conflicts with domestic code are identified.
//  3. Conflicting foreign symbols are remapped to unique names; remaining
//     foreign externals must resolve to duct tape (or remapped foreign)
//     symbols.
//
// Unresolved foreign references are not an error — they are returned via
// Image.Unresolved as required duct-tape work — but zone violations and
// same-zone duplicates are.
func Link(units []Unit) (*Image, error) {
	img := &Image{
		units:      units,
		owner:      make(map[string]int),
		unresolved: make(map[string][]string),
	}
	// Pass 1: index domestic and tape definitions.
	for i, u := range units {
		if u.Zone == Foreign {
			continue
		}
		for _, s := range u.Defines {
			if prev, ok := img.owner[s]; ok {
				return nil, &ErrDuplicate{Symbol: s, First: units[prev].Name, Second: u.Name}
			}
			img.owner[s] = i
		}
	}
	// Pass 2: add foreign definitions, remapping conflicts with
	// already-present (domestic/tape) symbols to unique names.
	foreignName := make(map[string]string) // original -> linked name
	for i, u := range units {
		if u.Zone != Foreign {
			continue
		}
		for _, s := range u.Defines {
			linked := s
			if prev, ok := img.owner[s]; ok {
				if units[prev].Zone == Foreign {
					return nil, &ErrDuplicate{Symbol: s, First: units[prev].Name, Second: u.Name}
				}
				linked = "xnu_" + s
				for n := 2; ; n++ {
					if _, taken := img.owner[linked]; !taken {
						break
					}
					linked = fmt.Sprintf("xnu%d_%s", n, s)
				}
				img.remaps = append(img.remaps, Remap{
					Symbol: s, NewName: linked, ConflictsWith: units[prev].Name,
				})
			}
			foreignName[s] = linked
			img.owner[linked] = i
		}
	}
	// Pass 3: resolve references under the zone visibility rules.
	for _, u := range units {
		for _, ref := range u.References {
			name := ref
			if u.Zone == Foreign {
				// Foreign code referring to its own (possibly remapped)
				// symbols sees them under the original name.
				if ln, ok := foreignName[ref]; ok {
					name = ln
				}
			}
			def, ok := img.owner[name]
			if !ok {
				// Unresolved: legal only for foreign code (it becomes duct
				// tape work); domestic/tape dangling references are bugs.
				if u.Zone == Foreign || u.Zone == Tape {
					img.unresolved[u.Name] = append(img.unresolved[u.Name], ref)
					continue
				}
				return nil, fmt.Errorf("ducttape: %s references undefined symbol %q", u.Name, ref)
			}
			defZone := u.Zone // same-zone default
			defZone = img.units[def].Zone
			if !visible(u.Zone, defZone) {
				return nil, &ErrZoneViolation{Unit: u.Name, Symbol: ref, From: u.Zone, To: defZone}
			}
		}
	}
	return img, nil
}

// visible reports whether code in zone from may reference symbols in zone
// to: "code in the domestic zone cannot access symbols in foreign zone, and
// code in the foreign zone cannot access symbols in the domestic zone. Both
// foreign and domestic zones can access symbols in the duct tape zone, and
// the duct tape zone can access symbols in both."
func visible(from, to Zone) bool {
	switch from {
	case Tape:
		return true
	case Domestic:
		return to != Foreign
	case Foreign:
		return to != Domestic
	}
	return false
}

// Remaps returns the automatic conflict renames, in link order.
func (img *Image) Remaps() []Remap { return img.remaps }

// Unresolved returns the duct-tape work list: per foreign/tape unit, the
// externals nothing defines yet.
func (img *Image) Unresolved() map[string][]string { return img.unresolved }

// Resolve returns the defining unit of a linked symbol name.
func (img *Image) Resolve(symbol string) (Unit, bool) {
	i, ok := img.owner[symbol]
	if !ok {
		return Unit{}, false
	}
	return img.units[i], true
}

// Report renders a human-readable link report (`cider ducttape`).
func (img *Image) Report() string {
	out := fmt.Sprintf("duct tape link report: %d units, %d symbols\n", len(img.units), len(img.owner))
	byZone := map[Zone]int{}
	for _, u := range img.units {
		byZone[u.Zone]++
	}
	out += fmt.Sprintf("  zones: %d domestic, %d foreign, %d ducttape\n",
		byZone[Domestic], byZone[Foreign], byZone[Tape])
	if len(img.remaps) > 0 {
		out += fmt.Sprintf("  %d symbol conflicts remapped:\n", len(img.remaps))
		for _, r := range img.remaps {
			out += fmt.Sprintf("    %s -> %s (conflicts with %s)\n", r.Symbol, r.NewName, r.ConflictsWith)
		}
	}
	if len(img.unresolved) > 0 {
		var names []string
		for n := range img.unresolved {
			names = append(names, n)
		}
		sort.Strings(names)
		out += "  unresolved foreign externals (duct tape work list):\n"
		for _, n := range names {
			out += fmt.Sprintf("    %s: %v\n", n, img.unresolved[n])
		}
	}
	return out
}
