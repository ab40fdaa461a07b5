package diffcheck

import (
	"repro/internal/fault"
	"repro/internal/replay"
)

// minimizeBudget caps the two-cell reruns Minimize spends on one
// divergence.
const minimizeBudget = 400

// Minimize shrinks a diverging program with replay.Shrink while the
// divergence keeps reproducing with the same Class and Sig under the
// given fault plan and DefaultAllowlist. Generated programs are closed
// under subsequence (empty fd slots read as -1), so dropping any op
// still leaves a runnable program.
func Minimize(p *Program, plan fault.Plan, target Divergence) *Program {
	ops := replay.Shrink(p.Ops, minimizeBudget, func(ops []Op) bool {
		divs, _ := Filter(CompareProgram(p.Seed, &Program{Seed: p.Seed, Ops: ops}, plan), DefaultAllowlist())
		for _, d := range divs {
			if d.Class == target.Class && d.Sig == target.Sig {
				return true
			}
		}
		return false
	})
	return &Program{Seed: p.Seed, Ops: ops}
}
