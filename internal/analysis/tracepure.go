package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// TracePure enforces the zero-cost-when-disabled guarantee of the trace
// layer: sink callbacks observe the simulation, they must never steer it.
// Any function reachable from a trace sink callback (SchedEvent, and the
// trace package's SyscallEnter/SyscallExit/Signal/Count) that calls back
// into the simulator — advancing time, waking or spawning procs, charging
// cost — would make enabling a trace change the schedule, breaking the
// bit-identical-replay property the Fig. 5/6 methodology depends on.
var TracePure = &Analyzer{
	Name: "tracepure",
	Doc: "functions reachable from trace sink callbacks must not call " +
		"Advance/Wake/charge: enabling a trace must not perturb the schedule",
	Run: runTracePure,
}

// tracePureKey caches the whole-program reachable-from-sink set.
const tracePureKey = "tracepure.reachable"

// sinkRootNames identify sink entry points. SchedEvent is the sim.Sink
// interface method, so any concrete implementation anywhere is a root; the
// remaining names are extended sink callbacks and only count when declared
// in a package named "trace".
var sinkRootNames = map[string]bool{
	"SchedEvent": true, "SyscallEnter": true, "SyscallExit": true,
	"Signal": true, "Count": true,
}

// simReentry are the simulator entry points a sink callback must never
// reach: time accrual, scheduling, and syscall dispatch, on sim or kernel
// receivers.
var simReentry = map[string]bool{
	"Advance": true, "Wake": true, "WakeOne": true, "WakeAll": true,
	"Spawn": true, "Park": true, "Sleep": true,
	"Wait": true, "WaitTimeout": true, "Exit": true,
	"Charge": true, "Compute": true, "charge": true, "Syscall": true,
}

func isSinkRoot(fn *types.Func) bool {
	if !sinkRootNames[fn.Name()] || RecvPkgName(fn) == "" {
		return false
	}
	if fn.Name() == "SchedEvent" {
		return true
	}
	return fn.Pkg() != nil && fn.Pkg().Name() == "trace"
}

// isSimReentry reports whether fn is a simulator entry point (a banned
// callee inside sink-reachable code).
func isSimReentry(fn *types.Func) bool {
	if fn == nil || !simReentry[fn.Name()] {
		return false
	}
	switch RecvPkgName(fn) {
	case "sim", "kernel":
		return true
	}
	return false
}

// sinkReachable computes, once per program, the set of loaded functions
// reachable from any sink root through statically resolvable calls.
func sinkReachable(prog *Program) map[*types.Func]bool {
	return prog.Fact(tracePureKey, func() any {
		reach := map[*types.Func]bool{}
		var queue []*types.Func
		for fn := range prog.funcDecls {
			if isSinkRoot(fn) {
				reach[fn] = true
				queue = append(queue, fn)
			}
		}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			src := prog.FuncBody(fn)
			if src == nil || src.Decl.Body == nil {
				continue
			}
			ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := Callee(src.Pkg, call)
				if callee == nil || reach[callee] {
					return true
				}
				if prog.FuncBody(callee) != nil {
					reach[callee] = true
					queue = append(queue, callee)
				}
				return true
			})
		}
		return reach
	}).(map[*types.Func]bool)
}

func runTracePure(pass *Pass) error {
	reach := sinkReachable(pass.Prog)

	// Check only functions declared in this package, so each finding is
	// reported exactly once (in its home package's pass).
	type decl struct {
		fn  *types.Func
		src *FuncSource
	}
	var decls []decl
	for fn := range reach {
		src := pass.Prog.FuncBody(fn)
		if src != nil && src.Pkg == pass.Pkg && src.Decl.Body != nil {
			decls = append(decls, decl{fn, src})
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].src.Decl.Pos() < decls[j].src.Decl.Pos() })

	for _, d := range decls {
		ast.Inspect(d.src.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := Callee(pass.Pkg, call)
			if isSimReentry(callee) {
				pass.Reportf(call.Pos(),
					"%s is reachable from a trace sink callback but re-enters the simulator via %s.%s: sinks must observe virtual time, never create it",
					d.fn.Name(), RecvTypeName(callee), callee.Name())
			}
			return true
		})
	}
	return nil
}
