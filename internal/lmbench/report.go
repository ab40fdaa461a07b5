package lmbench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// Report aggregates Fig. 5: per-test latencies for every configuration,
// with normalization against vanilla Android.
type Report struct {
	// Tests in figure order.
	Tests []Test
	// Latency[test][config] is the measured per-op latency.
	Latency map[string]map[string]time.Duration
	// Failed[test][config] marks tests that could not complete.
	Failed map[string]map[string]bool
}

// Cell identifies one parallel experiment cell: a single (configuration,
// test) pair run on its own freshly booted System. Index is the cell's
// canonical position (configurations in paper order, tests in battery
// order within each configuration) — the merge key that makes parallel
// output bit-identical to sequential.
type Cell struct {
	Index  int
	Config Configuration
	Test   Test
}

// Options configures a battery run.
type Options struct {
	// Jobs caps the host workers cells are sharded across; <= 0 means
	// GOMAXPROCS. Jobs=1 runs cells sequentially on the caller's
	// goroutine (the reference execution).
	Jobs int
	// OnSystem, when non-nil, is invoked with each cell's freshly booted
	// System before its benchmark process starts — the place to attach a
	// trace session. With Jobs > 1 it is called concurrently from worker
	// goroutines, so implementations must either be thread-safe or write
	// only to state indexed by the cell (e.g. sessions[cell.Index] in a
	// pre-sized slice). It must not advance virtual time.
	OnSystem func(Cell, *core.System)
}

// Cells enumerates the battery's parallel cells in canonical order: one
// per (configuration, test). lmbench cells can be this fine-grained
// because every test boots from the same cold-start System state; see
// passmark, where warm GPU state forces per-configuration cells.
func Cells(tests []Test) []Cell {
	confs := Configurations()
	cells := make([]Cell, 0, len(confs)*len(tests))
	for _, conf := range confs {
		for _, t := range tests {
			cells = append(cells, Cell{Index: len(cells), Config: conf, Test: t})
		}
	}
	return cells
}

// RunFigure5 runs tests (AllTests for the whole figure) on all four
// configurations, sharding (configuration, test) cells across opts.Jobs
// host workers. Each cell is an independent System with its own virtual
// clock, so the merged report is bit-identical for every Jobs value; only
// wall-clock time changes. On cell failure every other cell still runs
// and the error from the lowest-index cell is returned.
func RunFigure5(tests []Test, opts Options) (*Report, error) {
	cells := Cells(tests)
	outs, err := runner.Map(len(cells), opts.Jobs, func(i int) ([]Result, error) {
		cell := cells[i]
		var hook func(*core.System)
		if opts.OnSystem != nil {
			hook = func(sys *core.System) { opts.OnSystem(cell, sys) }
		}
		rs, rerr := RunWith(cell.Config, []Test{cell.Test}, hook)
		if rerr != nil {
			return nil, fmt.Errorf("lmbench: %s: %w", cell.Config.Name, rerr)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Tests:   tests,
		Latency: map[string]map[string]time.Duration{},
		Failed:  map[string]map[string]bool{},
	}
	for _, rs := range outs {
		for _, r := range rs {
			if rep.Latency[r.Test] == nil {
				rep.Latency[r.Test] = map[string]time.Duration{}
				rep.Failed[r.Test] = map[string]bool{}
			}
			rep.Latency[r.Test][r.Config] = r.Latency
			rep.Failed[r.Test][r.Config] = r.Failed
		}
	}
	return rep, nil
}

// baseName resolves a test's normalization baseline.
func (r *Report) baseName(test string) string {
	for _, t := range r.Tests {
		if t.Name == test {
			return t.BaseName()
		}
	}
	return test
}

// Normalized returns test latency in config relative to the baseline
// test's vanilla-Android latency (the Fig. 5 y-axis; lower is better).
// ok is false when either side failed.
func (r *Report) Normalized(test, config string) (float64, bool) {
	baseTest := r.baseName(test)
	base := r.Latency[baseTest][ConfigAndroid]
	lat, have := r.Latency[test][config]
	if !have || base == 0 || r.Failed[baseTest][ConfigAndroid] || r.Failed[test][config] {
		return 0, false
	}
	return float64(lat) / float64(base), true
}

// Render produces the Fig. 5 table: one row per test, normalized columns
// plus the absolute vanilla latency for scale.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: lmbench latencies normalized to vanilla Android (lower is better)\n")
	fmt.Fprintf(&b, "%-22s %-7s | %14s %14s %14s %14s\n",
		"test", "group", ConfigAndroid+"(abs)", ConfigCiderAndroid, ConfigCiderIOS, ConfigIPad)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 98))
	group := ""
	for _, t := range r.Tests {
		if t.Group != group {
			group = t.Group
			fmt.Fprintf(&b, "· %s\n", groupTitle(group))
		}
		base := r.Latency[t.Name][ConfigAndroid]
		if r.Failed[t.Name][ConfigAndroid] {
			base = 0
		}
		fmt.Fprintf(&b, "%-22s %-7s | %14s", t.Name, t.Group, fmtDur(base))
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
	case "basic":
		return "basic CPU operations"
	case "syscall":
		return "syscalls and signals"
	case "proc":
		return "process creation"
	case "comm":
		return "local communication and file operations"
	}
	return g
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "n/a"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
}
