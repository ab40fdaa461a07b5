package passmark

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
)

// Report aggregates Fig. 6: per-test throughput scores for every
// configuration, normalized to vanilla Android (higher is better).
type Report struct {
	Tests  []Test
	Score  map[string]map[string]float64
	Errors map[string]map[string]error
}

// Cell identifies one parallel experiment cell: a whole configuration's
// battery on one System. PassMark cells cannot shard per test the way
// lmbench's do: the 3D scenes measure warm GPU/diplomat state built up by
// the tests that ran before them in the same app process (a cold-start
// "simple 3D" run scores measurably differently), so the unit of
// parallelism is the configuration.
type Cell struct {
	Index  int
	Config Configuration
}

// Options configures a battery run. See lmbench.Options for the
// OnSystem thread-safety rule: with Jobs > 1 it runs concurrently.
type Options struct {
	// Jobs caps the host workers; <= 0 means GOMAXPROCS.
	Jobs int
	// OnSystem, when non-nil, is invoked with each cell's freshly booted
	// System before the app starts. Must not advance virtual time.
	OnSystem func(Cell, *core.System)
}

// RunFigure6 runs tests (AllTests for the whole figure) on all four
// configurations, sharding one cell per configuration across opts.Jobs
// host workers. Each cell is an independent System, so the merged report
// is bit-identical for every Jobs value.
func RunFigure6(tests []Test, opts Options) (*Report, error) {
	confs := Configurations()
	outs, err := runner.Map(len(confs), opts.Jobs, func(i int) ([]Result, error) {
		cell := Cell{Index: i, Config: confs[i]}
		var hook func(*core.System)
		if opts.OnSystem != nil {
			hook = func(sys *core.System) { opts.OnSystem(cell, sys) }
		}
		return RunWith(cell.Config, tests, hook)
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Tests:  tests,
		Score:  map[string]map[string]float64{},
		Errors: map[string]map[string]error{},
	}
	for _, rs := range outs {
		for _, r := range rs {
			if rep.Score[r.Test] == nil {
				rep.Score[r.Test] = map[string]float64{}
				rep.Errors[r.Test] = map[string]error{}
			}
			rep.Score[r.Test][r.Config] = r.Score
			rep.Errors[r.Test][r.Config] = r.Err
		}
	}
	return rep, nil
}

// Normalized returns config's throughput relative to vanilla Android
// (the Fig. 6 y-axis; higher is better).
func (r *Report) Normalized(test, config string) (float64, bool) {
	base := r.Score[test][ConfigAndroid]
	score, have := r.Score[test][config]
	if !have || base == 0 || r.Errors[test][ConfigAndroid] != nil || r.Errors[test][config] != nil {
		return 0, false
	}
	return score / base, true
}

// Render produces the Fig. 6 table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: PassMark throughput normalized to vanilla Android (higher is better)\n")
	fmt.Fprintf(&b, "%-22s %-8s | %14s %14s %14s %14s\n",
		"test", "group", ConfigAndroid+"(abs)", ConfigCiderAndroid, ConfigCiderIOS, ConfigIPad)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 100))
	group := ""
	for _, t := range r.Tests {
		if t.Group != group {
			group = t.Group
			fmt.Fprintf(&b, "· %s\n", groupTitle(group))
		}
		fmt.Fprintf(&b, "%-22s %-8s | %14s", t.Name, t.Group, fmtScore(r.Score[t.Name][ConfigAndroid]))
		for _, cfg := range []string{ConfigCiderAndroid, ConfigCiderIOS, ConfigIPad} {
			if norm, ok := r.Normalized(t.Name, cfg); ok {
				fmt.Fprintf(&b, " %13.2fx", norm)
			} else {
				fmt.Fprintf(&b, " %14s", "n/a")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func groupTitle(g string) string {
	switch g {
	case "cpu":
		return "CPU operations"
	case "storage":
		return "storage operations"
	case "memory":
		return "memory operations"
	case "2d":
		return "2D graphics"
	case "3d":
		return "3D graphics"
	}
	return g
}

func fmtScore(s float64) string {
	switch {
	case s == 0:
		return "n/a"
	case s >= 1e9:
		return fmt.Sprintf("%.1fG/s", s/1e9)
	case s >= 1e6:
		return fmt.Sprintf("%.1fM/s", s/1e6)
	case s >= 1e3:
		return fmt.Sprintf("%.1fk/s", s/1e3)
	default:
		return fmt.Sprintf("%.1f/s", s)
	}
}
