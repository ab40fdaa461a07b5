package replay

// MinimizeBudget is the trial budget for minimizing one decision
// stream's choice log; each trial re-executes the whole cell.
const MinimizeBudget = 96

// MinimizeChoices shrinks a failing schedule's non-canonical choice log
// to a shorter one that still reproduces the failure, using the same
// greedy delta-debug shape as internal/diffcheck's program minimizer:
// sweep back-to-front reverting one choice at a time to canonical, keep
// the removal if reproduces still reports the failure, and repeat until
// a full sweep removes nothing or MinimizeBudget trials have run.
//
// reproduces re-executes the cell under the trial choice log and
// reports whether the original failure still occurs. Trials that
// diverge from the recorded execution are expected — the Replayer
// clamps out-of-range choices — and simply return false.
//
// The result is a copy; choices is not mutated.
func MinimizeChoices(choices []Choice, reproduces func([]Choice) bool) []Choice {
	cur := append([]Choice(nil), choices...)
	budget := MinimizeBudget
	for {
		shrunk := false
		for i := len(cur) - 1; i >= 0 && budget > 0; i-- {
			trial := make([]Choice, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			budget--
			if reproduces(trial) {
				cur = trial
				shrunk = true
			}
		}
		if !shrunk || budget <= 0 {
			return cur
		}
	}
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
