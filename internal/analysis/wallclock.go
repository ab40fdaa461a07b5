package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// simPackageNames are the path segments that mark a package as part of the
// deterministic simulation: any wall-clock read or ambient-randomness use
// inside one of these breaks bit-identical replay (virtual time must
// advance only through sim.Proc.Advance/Sleep). The set covers every layer
// that executes under the simulator, from the scheduler itself up through
// the kernel, the duct-taped XNU subsystems, libraries, services, the
// graphics stack, the benchmark drivers, and the fault-injection/soak
// layer (whose decisions must be pure functions of seed and virtual time).
var simPackageNames = map[string]bool{
	"sim": true, "kernel": true, "xnu": true, "hw": true,
	"lmbench": true, "passmark": true, "gpu": true, "diplomat": true,
	"dyld": true, "services": true, "libsystem": true,
	"graphics": true, "uikit": true, "devices": true, "input": true,
	"bionic": true, "dalvik": true, "core": true, "mem": true,
	"prog": true, "iokit": true, "abi": true, "persona": true,
	"vfs": true, "trace": true, "ducttape": true, "ciderpress": true,
	"fault": true, "soak": true, "diffcheck": true, "replay": true,
}

// IsSimPackage reports whether an import path denotes a simulation package
// (any path segment in simPackageNames).
func IsSimPackage(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if simPackageNames[seg] {
			return true
		}
	}
	return false
}

// bannedTimeFuncs are the package time entry points that read or wait on
// the host's wall clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// Wallclock forbids wall-clock reads and unseeded randomness inside
// simulation packages.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/time.Sleep/time.After and unseeded math/rand in " +
		"simulation packages; any wall-clock leak breaks deterministic replay",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	if !IsSimPackage(pass.Pkg.Path) {
		return nil
	}
	// Iterate uses sorted by position for deterministic output. Checking
	// uses (not just calls) also catches leaks via stored function values
	// (f := time.Now; ... f()).
	type use struct {
		id  *ast.Ident
		obj *types.Func
	}
	var uses []use
	for id, obj := range pass.Pkg.Info.Uses {
		if f, ok := obj.(*types.Func); ok {
			uses = append(uses, use{id, f})
		}
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].id.Pos() < uses[j].id.Pos() })
	for _, u := range uses {
		pkg := u.obj.Pkg()
		if pkg == nil {
			continue
		}
		sig, ok := u.obj.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			continue // methods (e.g. Time.Sub) are derived values, not clock reads
		}
		switch pkg.Path() {
		case "time":
			if bannedTimeFuncs[u.obj.Name()] {
				pass.Reportf(u.id.Pos(),
					"wall-clock leak: time.%s breaks deterministic replay; use sim virtual time (Proc.Now/Sleep)",
					u.obj.Name())
			}
		case "math/rand", "math/rand/v2":
			// Package-level rand functions draw from the globally (and since
			// Go 1.20 randomly) seeded source; constructors for explicitly
			// seeded generators are fine.
			if !strings.HasPrefix(u.obj.Name(), "New") {
				pass.Reportf(u.id.Pos(),
					"nondeterminism leak: %s.%s uses the ambient random source; construct an explicitly seeded rand.New(rand.NewSource(seed))",
					pkg.Path(), u.obj.Name())
			}
		}
	}
	return nil
}
