// Package analysis is ciderlint's analyzer framework: a small, dependency-free
// mirror of golang.org/x/tools/go/analysis, built on the standard library's
// go/ast + go/types only. The container this repo builds in has no module
// proxy access, so the x/tools dependency is replaced by this shim; the
// Analyzer/Pass surface is kept deliberately API-shaped so the suite can be
// ported to the real go/analysis driver by swapping imports.
//
// The suite mechanizes the simulator's core invariants (see DESIGN.md,
// "Simulation invariants"):
//
//	wallclock   — no wall-clock or ambient-randomness leaks into simulation
//	              packages; virtual time advances only through sim.Proc.
//	chargecheck — every syscall handler and diplomat/dyld hop accrues modeled
//	              cost on every return path.
//	waketag     — the wake tag returned by Park/Sleep/Wait must be consumed,
//	              so WakeInterrupted is never silently dropped.
//	tracepure   — code reachable from trace sink callbacks never re-enters
//	              the simulator (the zero-cost-when-disabled guarantee).
//
// The v2 suite (see DESIGN.md, "Static analysis v2") adds the
// ABI-fidelity and hot-path analyzers grown out of the PR 6 differential
// persona oracle — every divergence class it caught dynamically is now
// statically enumerable:
//
//	tablecomplete — syscall tables, errno/signal maps, and open-flag
//	                translations must cover the declared ABI surface, and
//	                the maps must be bijections (the missing-dup and
//	                EDEADLK/EAGAIN collision bug classes).
//	xlatecheck    — raw errno/flag/signal constants of one persona's
//	                numbering must never reach the other persona's trap
//	                without passing through the translation helpers (the
//	                PR 6 open(O_CREAT) bug, as a lint).
//	lockorder     — the static lock-acquisition graph must be acyclic and
//	                no blocking primitive may be entered with a lock held.
//	hotalloc      — functions annotated //hot:noalloc must be
//	                allocation-free, guarding the 0-allocs switch path
//	                without a benchmark run.
//
// Deliberate exceptions are annotated in source with
//
//	//lint:allow <analyzer>: <reason>
//
// on the flagged line or the line directly above it. The colon and the
// reason are mandatory: a bare allow (no justification) is itself a
// diagnostic, and so is a stale allow that suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check for a single package, reporting findings
	// through the Pass.
	Run func(*Pass) error
}

// A Package is one type-checked package of the loaded program.
type Package struct {
	// Path is the import path ("repro/internal/sim").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// Lint marks packages selected by the load patterns (dependencies
	// pulled in for type information only are loaded with Lint=false and
	// produce no diagnostics).
	Lint bool
}

// A Program is the full set of loaded packages plus shared indices, so
// analyzers can resolve calls across package boundaries (chargecheck's
// may-charge fixpoint and tracepure's reachability both need whole-program
// call resolution).
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // sorted by Path

	byPath map[string]*Package
	// funcDecls maps a function/method object to its syntax and owning
	// package, for whole-program body lookups.
	funcDecls map[*types.Func]*FuncSource
	// facts caches whole-program computations keyed by analyzer.
	facts map[string]any
}

// FuncSource is a function's declaration site.
type FuncSource struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// FuncBody returns the declaration of fn if it was loaded, or nil for
// functions outside the program (standard library, interface methods,
// function-typed values).
func (p *Program) FuncBody(fn *types.Func) *FuncSource {
	if fn == nil {
		return nil
	}
	return p.funcDecls[fn]
}

// Fact returns the whole-program fact under key, computing and caching it
// on first use. Analyzers use this to build global indices exactly once
// even though Run is invoked per package.
func (p *Program) Fact(key string, build func() any) any {
	if v, ok := p.facts[key]; ok {
		return v
	}
	v := build()
	p.facts[key] = v
	return v
}

// buildIndices populates the cross-package lookup tables.
func (p *Program) buildIndices() {
	p.byPath = make(map[string]*Package, len(p.Packages))
	p.funcDecls = make(map[*types.Func]*FuncSource)
	p.facts = make(map[string]any)
	for _, pkg := range p.Packages {
		p.byPath[pkg.Path] = pkg
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.funcDecls[obj] = &FuncSource{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Allowed marks a finding suppressed by a //lint:allow directive;
	// AllowReason carries the directive's justification. Run filters
	// allowed findings out; RunAll keeps them so tooling (ciderlint -json)
	// can report allow status.
	Allowed     bool
	AllowReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Unparen strips parentheses from an expression.
func Unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// Callee resolves the static callee of call within pkg: a declared function,
// a method (concrete or interface), or nil for builtins, conversions, and
// calls through function-typed values.
func Callee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsRealCall reports whether call invokes code: it is neither a type
// conversion nor a builtin (len, append, make, ...).
func IsRealCall(pkg *Package, call *ast.CallExpr) bool {
	fun := Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return false
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			return false
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if _, ok := pkg.Info.Uses[sel.Sel].(*types.Builtin); ok {
			return false
		}
	}
	return true
}

// RecvPkgName returns the name of the package declaring fn's receiver type,
// or "" if fn is not a method. Methods on pointer receivers resolve to the
// element type's package.
func RecvPkgName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if p := fn.Pkg(); p != nil {
		return p.Name()
	}
	return ""
}

// RecvTypeName returns the named type of fn's receiver ("SyscallTable"),
// or "" if fn is not a method on a named type.
func RecvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// SyscallDefFields returns the number and handler of a syscall-table
// definition entry: a composite literal of a struct type named SyscallDef,
// positional {num, name, handler} or keyed {Num:, Name:, H:}. Tables built
// from a definition list register through these literals, not through
// SyscallTable.Register calls.
func SyscallDefFields(pkg *Package, cl *ast.CompositeLit) (num, handler ast.Expr, ok bool) {
	tv, found := pkg.Info.Types[cl]
	if !found {
		return nil, nil, false
	}
	named, isNamed := tv.Type.(*types.Named)
	if !isNamed || named.Obj().Name() != "SyscallDef" {
		return nil, nil, false
	}
	for i, el := range cl.Elts {
		if kv, isKV := el.(*ast.KeyValueExpr); isKV {
			if key, isID := kv.Key.(*ast.Ident); isID {
				switch key.Name {
				case "Num":
					num = kv.Value
				case "H":
					handler = kv.Value
				}
			}
			continue
		}
		switch i {
		case 0:
			num = el
		case 2:
			handler = el
		}
	}
	return num, handler, true
}

// directive is one parsed //lint:allow annotation.
type directive struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Position
	// hits counts findings this directive suppressed; a directive whose
	// analyzer ran yet hit nothing is stale and reported as a finding.
	hits int
}

// DirectivePrefix is the comment marker the driver understands.
const DirectivePrefix = "//lint:allow"

// parseDirectives extracts //lint:allow directives from a package's files.
// Malformed directives (missing colon, missing reason, unknown analyzer
// name) are reported as diagnostics in their own right: a suppression
// without a justification is exactly the kind of silent exception the
// suite exists to forbid.
func parseDirectives(prog *Program, pkg *Package, known map[string]bool, diags *[]Diagnostic) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, DirectivePrefix))
				// Allow fixtures to append a "// want" expectation to the
				// directive itself (analysistest convention).
				if i := strings.Index(rest, "// want"); i >= 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				name, reason, colon := strings.Cut(rest, ":")
				name = strings.TrimSpace(name)
				reason = strings.TrimSpace(reason)
				if !colon || strings.ContainsAny(name, " \t") || name == "" {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "ciderlint",
						Message:  "malformed directive: want //lint:allow <analyzer>: <reason>",
					})
					continue
				}
				if reason == "" {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "ciderlint",
						Message:  fmt.Sprintf("bare //lint:allow %s: a suppression must carry a justification after the colon", name),
					})
					continue
				}
				if !known[name] {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "ciderlint",
						Message:  fmt.Sprintf("directive names unknown analyzer %q", name),
					})
					continue
				}
				out = append(out, &directive{
					file: pos.Filename, line: pos.Line,
					analyzer: name, reason: reason, pos: pos,
				})
			}
		}
	}
	return out
}

// AnalyzerTiming records one analyzer's cumulative wall-clock time across
// every linted package, so `make lint` can surface slow passes.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// Result is a full analysis run: every diagnostic (allowed ones included,
// marked) plus per-analyzer timings.
type Result struct {
	// Diags holds all findings sorted by position; suppressed findings are
	// kept with Allowed=true so tooling can report allow status.
	Diags []Diagnostic
	// Timings lists per-analyzer elapsed time, in suite order.
	Timings []AnalyzerTiming
}

// Findings returns the diagnostics that survive suppression.
func (r *Result) Findings() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if !d.Allowed {
			out = append(out, d)
		}
	}
	return out
}

// RunAll executes the analyzers over every Lint-selected package of the
// program and applies //lint:allow suppression, keeping suppressed
// findings (marked Allowed) in the result. A directive that suppresses
// nothing — while its analyzer is part of the run — is itself reported as
// stale: dead allows rot into blanket exemptions when the code under them
// changes.
func RunAll(prog *Program, analyzers []*Analyzer) (*Result, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	res := &Result{}
	elapsed := make(map[string]time.Duration, len(analyzers))
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		if !pkg.Lint {
			continue
		}
		for _, a := range analyzers {
			start := time.Now()
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			elapsed[a.Name] += time.Since(start)
		}
	}
	// Directive suppression: an allow on the flagged line, or on the line
	// directly above it, silences that analyzer there.
	var dirs []*directive
	for _, pkg := range prog.Packages {
		if !pkg.Lint {
			continue
		}
		dirs = append(dirs, parseDirectives(prog, pkg, known, &diags)...)
	}
	byKey := make(map[string]*directive, 2*len(dirs))
	for _, d := range dirs {
		byKey[fmt.Sprintf("%s:%d:%s", d.file, d.line, d.analyzer)] = d
		byKey[fmt.Sprintf("%s:%d:%s", d.file, d.line+1, d.analyzer)] = d
	}
	for i := range diags {
		d := &diags[i]
		if dir, ok := byKey[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Analyzer)]; ok {
			d.Allowed = true
			d.AllowReason = dir.reason
			dir.hits++
		}
	}
	for _, dir := range dirs {
		if dir.hits == 0 {
			diags = append(diags, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "ciderlint",
				Message: fmt.Sprintf("stale //lint:allow %s: no %s finding here to suppress — remove the directive",
					dir.analyzer, dir.analyzer),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	res.Diags = diags
	for _, a := range analyzers {
		res.Timings = append(res.Timings, AnalyzerTiming{Name: a.Name, Elapsed: elapsed[a.Name]})
	}
	return res, nil
}

// Run executes the analyzers and returns only the diagnostics surviving
// //lint:allow suppression, sorted by position.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := RunAll(prog, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Findings(), nil
}

// All returns the full ciderlint suite: the four v1 simulation invariants
// plus the four v2 ABI-fidelity/concurrency/hot-path analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock, ChargeCheck, WakeTag, TracePure,
		TableComplete, XlateCheck, LockOrder, HotAlloc,
	}
}
