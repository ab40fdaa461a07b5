package replay

// MinimizeBudget is the trial budget for minimizing one decision
// stream's choice log; each trial re-executes the whole cell.
const MinimizeBudget = 96

// Shrink greedily delta-debugs xs: it sweeps back to front, dropping one
// element at a time and keeping the drop while reproduces still reports
// the failure, and repeats until a full sweep drops nothing or budget
// trials have run. Sweeping from the back drops what comes after the
// failure point first. Each trial is a fresh slice; xs is not mutated.
func Shrink[T any](xs []T, budget int, reproduces func([]T) bool) []T {
	cur := append([]T(nil), xs...)
	for shrunk := true; shrunk && budget > 0; {
		shrunk = false
		for i := len(cur) - 1; i >= 0 && budget > 0; i-- {
			trial := make([]T, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			budget--
			if reproduces(trial) {
				cur = trial
				shrunk = true
			}
		}
	}
	return cur
}

// MinimizeChoices shrinks a failing schedule's non-canonical choice log
// to a shorter one that still reproduces the failure: dropping a choice
// reverts that decision to canonical. reproduces re-executes the cell
// under the trial choice log and reports whether the original failure
// still occurs. Trials that diverge from the recorded execution are
// expected — the Replayer clamps out-of-range choices — and simply
// return false.
func MinimizeChoices(choices []Choice, reproduces func([]Choice) bool) []Choice {
	return Shrink(choices, MinimizeBudget, reproduces)
}

// minimize shrinks a failing recording's choice logs one stream at a
// time, keeping a trial only while the run's first finding has the same
// kind and key as first. It then re-runs the cell under the shrunk logs
// so the artifact's digest, decision count and note describe the
// minimized schedule. Minimization only keeps reproducing trials, so
// that rerun reproduces unless the cell is not a pure function of its
// logs; if it does not, the original recording is returned instead.
func minimize(c Cell, first Finding, orig *Artifact) *Artifact {
	same := func(o Outcome) bool {
		fs := o.Findings()
		return len(fs) > 0 && fs[0].Kind == first.Kind && fs[0].Key == first.Key
	}
	logs := orig.logs(c.Streams())
	for k := range logs {
		logs[k] = MinimizeChoices(logs[k], func(trial []Choice) bool {
			t := append([][]Choice(nil), logs...)
			t[k] = trial
			return same(c.Run(replayers(t)))
		})
	}
	o, min := Record(c, orig.ExploreSeed, replayers(logs)...)
	if !same(o) {
		return orig
	}
	return min
}
