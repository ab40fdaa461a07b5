package diffcheck

import "repro/internal/fault"

// minimizeBudget caps the two-cell reruns Minimize spends on one
// divergence.
const minimizeBudget = 400

// Minimize greedily shrinks a diverging program while the divergence
// keeps reproducing with the same Class and Sig under the given fault
// plan and DefaultAllowlist. Generated programs are closed under
// subsequence (empty fd slots read as -1), so dropping any op still
// leaves a runnable program. Each pass sweeps candidates from the back
// so ops after the divergence point disappear first.
func Minimize(p *Program, plan fault.Plan, target Divergence) *Program {
	budget := minimizeBudget
	reproduces := func(q *Program) bool {
		divs, _ := Filter(CompareProgram(p.Seed, q, plan), DefaultAllowlist())
		for _, d := range divs {
			if d.Class == target.Class && d.Sig == target.Sig {
				return true
			}
		}
		return false
	}
	cur := &Program{Seed: p.Seed, Ops: append([]Op(nil), p.Ops...)}
	for shrunk := true; shrunk && budget > 0; {
		shrunk = false
		for i := len(cur.Ops) - 1; i >= 0 && budget > 0; i-- {
			trial := &Program{Seed: cur.Seed, Ops: make([]Op, 0, len(cur.Ops)-1)}
			trial.Ops = append(trial.Ops, cur.Ops[:i]...)
			trial.Ops = append(trial.Ops, cur.Ops[i+1:]...)
			budget--
			if reproduces(trial) {
				cur = trial
				shrunk = true
			}
		}
	}
	return cur
}
