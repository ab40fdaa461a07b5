package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// TableComplete verifies the declared ABI surface is actually provisioned:
//
//  1. Syscall-table coverage. A const block that contributes any syscall
//     number to a table registration (SyscallTable.Register, a SyscallDef
//     definition entry, or the abi package's wrap closure) must
//     contribute every member: declaring
//     XNUDup without registering it is exactly how every iOS-persona dup
//     returned ENOSYS while the Android persona's worked (the first
//     divergence the PR 6 differential oracle flagged). Blocks that
//     register nothing — flag bits, trap-class tags, message options —
//     are not tables and are exempt.
//
//  2. Errno-map coverage and bijectivity. Every declared constant of the
//     kernel's Errno type (except the zero success value) must appear as
//     a key of linuxToXNUErrno, and the *effective* translation (mapped
//     value, or identity for absent keys) must be injective: Linux
//     EDEADLK=35 colliding with BSD EAGAIN=35 is the errno-35 border
//     crossing the oracle caught dynamically.
//
//  3. Signal-map bijectivity. The effective linuxToXNUSignal translation
//     over [1, nsig) must be a bijection onto [1, nsig): a partial table
//     is how canonical TSTP(20) and CHLD(17→XNU 20) both read as XNU 20,
//     so an iOS thread could neither register nor receive SIGTSTP.
//
//  4. Open-flag translation coverage. XNU open-flag constants (the XNUO*
//     bit names) must each be consumed somewhere in their package —
//     a declared flag bit nobody translates is a silently-dropped or
//     raw-forwarded bit at the persona boundary.
//
// The pass keys on the tree's naming conventions (linuxToXNUErrno,
// linuxToXNUSignal, nsig, Errno, XNUO<Flag>), which DESIGN.md pins as
// part of the ABI-translation contract.
var TableComplete = &Analyzer{
	Name: "tablecomplete",
	Doc: "syscall tables, errno/signal maps, and open-flag translations " +
		"must cover the declared ABI surface; missing entries and " +
		"map collisions are the oracle-caught divergence classes",
	Run: runTableComplete,
}

func runTableComplete(pass *Pass) error {
	if !IsSimPackage(pass.Pkg.Path) {
		return nil
	}
	checkTableBlocks(pass)
	checkErrnoMap(pass)
	checkSignalMap(pass)
	checkOpenFlags(pass)
	return nil
}

// constIntValue resolves a package-level constant object's integer value.
func constIntValue(obj *types.Const) (int64, bool) {
	v := obj.Val()
	if v == nil || v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// pkgLevelConst returns the *types.Const a name declares iff it is a
// package-scope integer constant of pkg.
func pkgLevelConst(pkg *Package, name *ast.Ident) *types.Const {
	obj, ok := pkg.Info.Defs[name].(*types.Const)
	if !ok || obj.Pkg() == nil {
		return nil
	}
	if pkg.Types.Scope().Lookup(name.Name) != obj {
		return nil
	}
	if _, ok := constIntValue(obj); !ok {
		return nil
	}
	return obj
}

// checkTableBlocks enforces the "blocks that register anything must
// register everything" rule for syscall-number const blocks.
func checkTableBlocks(pass *Pass) {
	pkg := pass.Pkg

	// Collect every const object used as the number argument of a table
	// registration: arg 0 of SyscallTable.Register, the number of a
	// SyscallDef definition entry, and arg 0 of any call
	// to a local function value named "wrap" (the abi package's forwarding
	// closure; Callee cannot resolve closure variables, so the name is the
	// convention).
	registered := map[*types.Const]bool{}
	markConsts := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if c, ok := pkg.Info.Uses[id].(*types.Const); ok {
				registered[c] = true
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if cl, ok := n.(*ast.CompositeLit); ok {
				if num, _, ok := SyscallDefFields(pkg, cl); ok && num != nil {
					markConsts(num)
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if fn := Callee(pkg, call); fn != nil {
				if fn.Name() == "Register" && RecvTypeName(fn) == "SyscallTable" {
					markConsts(call.Args[0])
				}
				return true
			}
			if id, ok := Unparen(call.Fun).(*ast.Ident); ok && id.Name == "wrap" {
				markConsts(call.Args[0])
			}
			return true
		})
	}
	if len(registered) == 0 {
		return // this package builds no tables
	}

	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			type member struct {
				obj *types.Const
				pos token.Pos
			}
			var members []member
			hasRegistered := false
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := pkgLevelConst(pkg, name)
					if obj == nil {
						continue
					}
					// Typed constants (TrapClass tags, Errno values) are
					// value enums, not syscall tables.
					if named, ok := obj.Type().(*types.Named); ok && named.Obj().Pkg() != nil {
						continue
					}
					members = append(members, member{obj, name.Pos()})
					if registered[obj] {
						hasRegistered = true
					}
				}
			}
			if !hasRegistered {
				continue
			}
			for _, m := range members {
				if !registered[m.obj] {
					pass.Reportf(m.pos,
						"syscall number %s is declared in a registered table's const block but never registered: every declared trap must have a handler (the missing-dup divergence class)",
						m.obj.Name())
				}
			}
		}
	}
}

// findMapLit locates a package-level `var <name> = map[...]...{...}`
// composite literal.
func findMapLit(pkg *Package, name string) (*ast.CompositeLit, token.Pos) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, n := range vs.Names {
					if n.Name != name || i >= len(vs.Values) {
						continue
					}
					if cl, ok := Unparen(vs.Values[i]).(*ast.CompositeLit); ok {
						return cl, n.Pos()
					}
				}
			}
		}
	}
	return nil, token.NoPos
}

// mapLitEntries evaluates a map composite literal's constant key/value
// pairs, skipping entries whose values the type checker could not fold.
type mapEntry struct {
	key, val int64
	keyName  string
	pos      token.Pos
}

func mapLitEntries(pkg *Package, cl *ast.CompositeLit) []mapEntry {
	var out []mapEntry
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		kval, kok := exprConst(pkg, kv.Key)
		vval, vok := exprConst(pkg, kv.Value)
		if !kok || !vok {
			continue
		}
		name := ""
		if id, ok := Unparen(kv.Key).(*ast.Ident); ok {
			name = id.Name
		}
		out = append(out, mapEntry{key: kval, val: vval, keyName: name, pos: kv.Pos()})
	}
	return out
}

// exprConst folds an expression to an integer constant via the checker.
func exprConst(pkg *Package, e ast.Expr) (int64, bool) {
	tv, ok := pkg.Info.Types[Unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// checkErrnoMap enforces completeness and effective injectivity of
// linuxToXNUErrno over the declared Errno constants.
func checkErrnoMap(pass *Pass) {
	pkg := pass.Pkg
	errnoType, _ := pkg.Types.Scope().Lookup("Errno").(*types.TypeName)
	cl, mapPos := findMapLit(pkg, "linuxToXNUErrno")
	if errnoType == nil || cl == nil {
		return
	}

	// Declared Errno constants (package scope), excluding the zero success
	// value.
	type errnoConst struct {
		name string
		val  int64
		pos  token.Pos
	}
	var declared []errnoConst
	scope := pkg.Types.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, n := range names {
		c, ok := scope.Lookup(n).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj() != errnoType {
			continue
		}
		v, ok := constIntValue(c)
		if !ok || v == 0 {
			continue
		}
		declared = append(declared, errnoConst{name: n, val: v, pos: c.Pos()})
	}

	entries := mapLitEntries(pkg, cl)
	keyed := map[int64]bool{}
	mapped := map[int64]int64{}
	for _, e := range entries {
		keyed[e.key] = true
		mapped[e.key] = e.val
	}

	// Completeness: every declared errno must be pinned in the map, so a
	// fault-injected value can never cross the boundary Linux-numbered by
	// accident of the identity fallback.
	for _, d := range declared {
		if !keyed[d.val] {
			pass.Reportf(d.pos,
				"errno %s is declared but missing from linuxToXNUErrno: it would cross the persona boundary Linux-numbered via the identity fallback",
				d.name)
		}
	}

	// Effective injectivity over the declared surface: two errnos landing
	// on the same XNU number read as the same condition to an iOS thread.
	out := map[int64]string{}
	for _, d := range declared {
		x := d.val
		if m, ok := mapped[d.val]; ok {
			x = m
		}
		if prev, dup := out[x]; dup {
			pass.Reportf(mapPos,
				"errno translation collision: %s and %s both map to XNU errno %d (the EDEADLK/EAGAIN-35 divergence class)",
				prev, d.name, x)
			continue
		}
		out[x] = d.name
	}
}

// checkSignalMap enforces that the effective linuxToXNUSignal translation
// is a bijection on [1, nsig).
func checkSignalMap(pass *Pass) {
	pkg := pass.Pkg
	cl, mapPos := findMapLit(pkg, "linuxToXNUSignal")
	if cl == nil {
		return
	}
	nsigObj, ok := pkg.Types.Scope().Lookup("nsig").(*types.Const)
	if !ok {
		return
	}
	nsig, ok := constIntValue(nsigObj)
	if !ok || nsig <= 1 {
		return
	}

	entries := mapLitEntries(pkg, cl)
	mapped := map[int64]int64{}
	for _, e := range entries {
		if e.key < 1 || e.key >= nsig {
			pass.Reportf(e.pos,
				"signal map key %d is outside the canonical range [1, %d)", e.key, nsig)
			continue
		}
		if e.val < 1 || e.val >= nsig {
			pass.Reportf(e.pos,
				"signal map value %d (for canonical %d) is outside the XNU range [1, %d)", e.val, e.key, nsig)
			continue
		}
		mapped[e.key] = e.val
	}

	// Effective translation: mapped value, or identity. Surjectivity onto
	// [1, nsig) follows from injectivity on a finite equal-sized domain,
	// so one collision check pins bijectivity.
	out := map[int64]int64{}
	for c := int64(1); c < nsig; c++ {
		x := c
		if m, ok := mapped[c]; ok {
			x = m
		}
		if prev, dup := out[x]; dup {
			pass.Reportf(mapPos,
				"signal translation collision: canonical %d and %d both map to XNU signal %d — an iOS thread can neither register nor receive one of them (the TSTP/CHLD-20 divergence class)",
				prev, c, x)
			continue
		}
		out[x] = c
	}
}

// checkOpenFlags requires every XNU open-flag constant (XNUO + capitalized
// flag name, distinguishing XNUOCreat from the syscall number XNUOpen) to
// be consumed somewhere in its package.
func checkOpenFlags(pass *Pass) {
	pkg := pass.Pkg
	isFlagName := func(name string) bool {
		const p = "XNUO"
		return len(name) > len(p) && strings.HasPrefix(name, p) &&
			name[len(p)] >= 'A' && name[len(p)] <= 'Z'
	}
	var flags []*types.Const
	scope := pkg.Types.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, n := range names {
		if !isFlagName(n) {
			continue
		}
		if c, ok := scope.Lookup(n).(*types.Const); ok {
			if _, isInt := constIntValue(c); isInt {
				flags = append(flags, c)
			}
		}
	}
	if len(flags) == 0 {
		return
	}
	used := map[types.Object]bool{}
	for _, obj := range pkg.Info.Uses {
		if c, ok := obj.(*types.Const); ok {
			used[c] = true
		}
	}
	for _, c := range flags {
		if !used[c] {
			pass.Reportf(c.Pos(),
				"open flag %s is declared but never consumed by a translation: the bit would be dropped or forwarded raw at the persona boundary (the O_CREAT 0x200 divergence class)",
				c.Name())
		}
	}
}
