package analysis

import (
	"go/ast"
	"go/types"
)

// ChargeCheck verifies the paper's cost model is actually applied: every
// handler registered in a kernel.SyscallTable (by Register or as a
// SyscallDef definition entry) must accrue virtual-time cost
// (charge/Charge/Advance, or a blocking primitive) on every return path,
// and every diplomat/dyld hop must accrue cost somewhere in its body. A
// handler path that produces a SyscallRet without charging silently skews
// the Fig. 5/6 latency decompositions.
//
// The analysis is interprocedural and optimistic: a whole-program
// "may-charge" set is computed by fixpoint from the sim.Proc primitives
// (Advance/Sleep/Park), propagated through every loaded function body.
// Calls that cannot be resolved statically — function-typed values and
// interface methods — are assumed to charge, so findings are
// high-confidence: a flagged path called nothing that could possibly have
// accrued cost.
//
// Returns of the bare-rejection form `SyscallRet{Errno: e}` (only the
// Errno field set) are exempt: argument-validation failures cost exactly
// the dispatcher's entry/exit charges by design.
var ChargeCheck = &Analyzer{
	Name: "chargecheck",
	Doc: "every SyscallTable handler must charge/Advance on every return " +
		"path, and every diplomat/dyld hop must accrue cost; uncharged " +
		"paths skew the modeled Fig. 5/6 latencies",
	Run: runChargeCheck,
}

// mayChargeKey caches the whole-program may-charge set.
const mayChargeKey = "chargecheck.maycharge"

// chargeSeed reports whether fn is a virtual-time primitive: the sim
// package's Advance/Sleep/Park methods, through which all cost accrual and
// blocking flows. The fault injector's consult methods are also seeds:
// their contract is consult-and-apply — a fired rule may mandate a Delay
// the site charges to the victim — so under the optimistic model an
// injection site counts as a path that can accrue cost (an injected
// early-errno return pays its modeled cost via the consult).
func chargeSeed(fn *types.Func) bool {
	switch fn.Name() {
	case "Advance", "Sleep", "Park":
		return RecvPkgName(fn) == "sim"
	case "Check", "Syscall", "Interrupt", "MemMap", "VFS", "Crash":
		return RecvPkgName(fn) == "fault"
	}
	return false
}

// mayCharge returns the set of loaded functions that can accrue virtual
// time, computed once per program.
func mayCharge(prog *Program) map[*types.Func]bool {
	return prog.Fact(mayChargeKey, func() any {
		set := map[*types.Func]bool{}
		for fn := range prog.funcDecls {
			if chargeSeed(fn) {
				set[fn] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for fn, src := range prog.funcDecls {
				if set[fn] || src.Decl.Body == nil {
					continue
				}
				if nodeCharges(prog, src.Pkg, src.Decl.Body, set) {
					set[fn] = true
					changed = true
				}
			}
		}
		return set
	}).(map[*types.Func]bool)
}

// callCharges reports whether a single call may accrue virtual time under
// the optimistic model.
func callCharges(prog *Program, pkg *Package, call *ast.CallExpr, set map[*types.Func]bool) bool {
	if !IsRealCall(pkg, call) {
		return false
	}
	fn := Callee(pkg, call)
	if fn == nil {
		return true // function-typed value: assume it charges
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return true // interface dispatch: assume it charges
		}
	}
	if set[fn] {
		return true
	}
	if chargeSeed(fn) {
		return true
	}
	// Resolved concrete function whose body is loaded and known not to
	// charge, or an external (standard library) function — the standard
	// library cannot advance virtual time.
	return false
}

// nodeCharges reports whether any call under n may charge.
func nodeCharges(prog *Program, pkg *Package, n ast.Node, set map[*types.Func]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && callCharges(prog, pkg, call, set) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isErrnoRejection matches `return SyscallRet{Errno: e}` — a composite
// literal of a type named SyscallRet whose only element sets Errno.
func isErrnoRejection(pkg *Package, ret *ast.ReturnStmt) bool {
	if len(ret.Results) != 1 {
		return false
	}
	cl, ok := Unparen(ret.Results[0]).(*ast.CompositeLit)
	if !ok || len(cl.Elts) == 0 {
		return false
	}
	tv, ok := pkg.Info.Types[cl]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Name() != "SyscallRet" {
		return false
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return false
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Errno" {
			return false
		}
	}
	return true
}

func runChargeCheck(pass *Pass) error {
	set := mayCharge(pass.Prog)
	seen := map[ast.Node]bool{} // a handler registered twice is checked once

	checkHandler := func(expr ast.Expr) {
		expr = Unparen(expr)
		switch h := expr.(type) {
		case *ast.FuncLit:
			if !seen[h] {
				seen[h] = true
				checkReturnPaths(pass, pass.Pkg, h.Body, set)
			}
		case *ast.Ident, *ast.SelectorExpr:
			fn := Callee(pass.Pkg, &ast.CallExpr{Fun: expr})
			if fn == nil {
				// A function-typed variable (e.g. a handler looked up from
				// another table): its origin is checked where it was
				// registered first.
				return
			}
			src := pass.Prog.FuncBody(fn)
			if src == nil || src.Decl.Body == nil || seen[src.Decl] {
				return
			}
			seen[src.Decl] = true
			checkReturnPaths(pass, src.Pkg, src.Decl.Body, set)
		}
	}

	// A hop (diplomat closure, dyld atexit/atfork hook) must accrue cost
	// somewhere in its body; hops have no SyscallRet paths to key on, so
	// the per-path rule does not apply.
	checkHop := func(lit *ast.FuncLit, what string) {
		if seen[lit] {
			return
		}
		seen[lit] = true
		if !nodeCharges(pass.Prog, pass.Pkg, lit.Body, set) {
			pass.Reportf(lit.Pos(), "%s accrues no virtual-time cost (no charge/Advance anywhere in its body)", what)
		}
	}

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CompositeLit:
				if _, h, ok := SyscallDefFields(pass.Pkg, node); ok && h != nil {
					checkHandler(h)
				}
			case *ast.CallExpr:
				fn := Callee(pass.Pkg, node)
				if fn == nil {
					return true
				}
				switch {
				case fn.Name() == "Register" && RecvTypeName(fn) == "SyscallTable" && len(node.Args) == 3:
					checkHandler(node.Args[2])
				case (fn.Name() == "AtExit" || fn.Name() == "AtFork") && RecvTypeName(fn) != "":
					for _, arg := range node.Args {
						if lit, ok := Unparen(arg).(*ast.FuncLit); ok {
							checkHop(lit, "dyld "+fn.Name()+" hook")
						}
					}
				case fn.Name() == "OnPressure" && RecvTypeName(fn) == "Memorystatus":
					// Memory-pressure delivery is modeled work: the handler a
					// runtime registers runs in the context of whichever
					// thread crossed the watermark and must charge its
					// delivery cost there (the kernel charges the per-handler
					// notify hop; the runtime charges its dispatch/trim
					// delivery on top).
					for _, arg := range node.Args {
						if lit, ok := Unparen(arg).(*ast.FuncLit); ok {
							checkHop(lit, "memory-pressure handler")
						}
					}
				case fn.Name() == "SetExceptionBridge" && RecvTypeName(fn) == "Kernel":
					// Exception delivery is modeled work: the bridge consulted
					// on a fatal fault must accrue the exception-message cost.
					for _, arg := range node.Args {
						if lit, ok := Unparen(arg).(*ast.FuncLit); ok {
							checkHop(lit, "exception bridge")
						}
					}
				}
			case *ast.FuncDecl:
				// Diplomat hops: closures returned by a Wrap method.
				if node.Name != nil && node.Name.Name == "Wrap" && node.Body != nil {
					ast.Inspect(node.Body, func(n ast.Node) bool {
						ret, ok := n.(*ast.ReturnStmt)
						if !ok {
							return true
						}
						for _, r := range ret.Results {
							if lit, ok := Unparen(r).(*ast.FuncLit); ok {
								checkHop(lit, "diplomat hop")
							}
						}
						return true
					})
				}
			}
			return true
		})
	}
	return nil
}

// checkReturnPaths walks a handler body and reports every return statement
// that cannot have accrued cost. The walk is syntactic and optimistic: a
// may-charge call anywhere textually before the return (in any enclosing
// branch or loop) counts as charging, so only paths with no possible
// accrual at all are flagged.
func checkReturnPaths(pass *Pass, bodyPkg *Package, body *ast.BlockStmt, set map[*types.Func]bool) {
	prog := pass.Prog
	charges := func(n ast.Node) bool {
		if n == nil {
			return false
		}
		return nodeCharges(prog, bodyPkg, n, set)
	}
	exprsCharge := func(exprs []ast.Expr) bool {
		for _, e := range exprs {
			if charges(e) {
				return true
			}
		}
		return false
	}
	var walkList func(list []ast.Stmt, charged bool) bool
	var walk func(s ast.Stmt, charged bool) bool
	walk = func(s ast.Stmt, charged bool) bool {
		switch st := s.(type) {
		case nil:
			return charged
		case *ast.BlockStmt:
			return walkList(st.List, charged)
		case *ast.ReturnStmt:
			if !charged && !exprsCharge(st.Results) && !isErrnoRejection(bodyPkg, st) {
				pass.Reportf(st.Pos(), "return path accrues no virtual-time cost: syscall handlers must charge their modeled cost on every path")
			}
			return charged
		case *ast.IfStmt:
			c := walk(st.Init, charged)
			if charges(st.Cond) {
				c = true
			}
			walk(st.Body, c)
			walk(st.Else, c)
			return charged || charges(st)
		case *ast.ForStmt:
			c := walk(st.Init, charged)
			if charges(st.Cond) {
				c = true
			}
			// A later iteration may reach a return after an earlier one
			// charged, so the loop body is optimistically pre-charged by
			// its own content.
			walk(st.Body, c || charges(st.Body))
			return charged || charges(st)
		case *ast.RangeStmt:
			c := charged || charges(st.X)
			walk(st.Body, c || charges(st.Body))
			return charged || charges(st)
		case *ast.SwitchStmt:
			c := walk(st.Init, charged)
			if charges(st.Tag) {
				c = true
			}
			for _, cc := range st.Body.List {
				if clause, ok := cc.(*ast.CaseClause); ok {
					walkList(clause.Body, c || exprsCharge(clause.List))
				}
			}
			return charged || charges(st)
		case *ast.TypeSwitchStmt:
			c := walk(st.Init, charged)
			c = walk(st.Assign, c)
			for _, cc := range st.Body.List {
				if clause, ok := cc.(*ast.CaseClause); ok {
					walkList(clause.Body, c)
				}
			}
			return charged || charges(st)
		case *ast.SelectStmt:
			for _, cc := range st.Body.List {
				if clause, ok := cc.(*ast.CommClause); ok {
					walkList(clause.Body, walk(clause.Comm, charged))
				}
			}
			return charged || charges(st)
		case *ast.LabeledStmt:
			return walk(st.Stmt, charged)
		default:
			return charged || charges(st)
		}
	}
	walkList = func(list []ast.Stmt, charged bool) bool {
		c := charged
		for _, s := range list {
			c = walk(s, c)
		}
		return c
	}
	walkList(body.List, false)
}
