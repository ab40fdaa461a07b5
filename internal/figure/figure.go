// Package figure is the frame the paper's Figs. 5 and 6 share: the four
// configurations (vanilla Android, Cider running the Linux binary, Cider
// running the iOS binary, the iPad mini), the battery runner that boots
// one System per cell and shards cells across host workers, the driver
// skeleton each cell runs, and the report, normalized to vanilla Android,
// with its table renderer, and the paper's claims about each figure as
// data: checks over the report that also render its paper-vs-measured
// table. lmbench (Fig. 5) and passmark (Fig. 6) keep their tests and
// supply the rest of what differs, claims included, as a Figure value.
package figure

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/runner"
)

// Configuration names: the columns of both figures.
const (
	ConfigAndroid      = "android"
	ConfigCiderAndroid = "cider-android"
	ConfigCiderIOS     = "cider-ios"
	ConfigIPad         = "ipad"
)

// Configuration is one column of both figures.
type Configuration struct {
	Name   string
	System core.Config
	// Persona selects the benchmark's build: the GCC-built ELF or the
	// Dalvik app for Android, the Xcode-built Mach-O or native app for iOS.
	Persona persona.Kind
}

// Configurations returns the four configurations in paper order.
func Configurations() []Configuration {
	return []Configuration{
		{ConfigAndroid, core.ConfigVanilla, persona.Android},
		{ConfigCiderAndroid, core.ConfigCider, persona.Android},
		{ConfigCiderIOS, core.ConfigCider, persona.IOS},
		{ConfigIPad, core.ConfigIPad, persona.IOS},
	}
}

// Row is one test as the table shows it. Base names the test whose
// vanilla-Android value normalizes this one; empty means itself.
type Row struct{ Name, Group, Base string }

// Test is a battery's test type; Result is its result type, yielding
// the measured value and whether the test failed to complete.
type (
	Test   interface{ Row() Row }
	Result interface{ Measured() (float64, bool) }
)

// InGroup keeps the tests of one group.
func InGroup[T Test](tests []T, group string) []T {
	var out []T
	for _, t := range tests {
		if t.Row().Group == group {
			out = append(out, t)
		}
	}
	return out
}

// Figure is what one figure supplies to the frame, as data.
type Figure struct {
	// Name prefixes the battery's errors and keys its driver binary.
	Name string
	// Title heads the table, GroupWidth is its group column's width and
	// Rule the width of the rule under its header.
	Title            string
	GroupWidth, Rule int
	// Groups titles each group; Format renders a nonzero abs value.
	Groups map[string]string
	Format func(float64) string
	// PerTest makes each (configuration, test) pair a cell, sound for
	// tests that start from a cold System; otherwise a cell is one
	// configuration's battery, for tests that read warm state.
	PerTest bool
	// RunWrapped: RunWith prefixes a failed run's error with "<Name>:
	// <configuration>: "; otherwise Run prefixes every cell's error. Soak
	// digests fold RunWith's error text, so each keeps its layer.
	RunWrapped bool
	// The driver is installed at AndroidPath (a dynamic ELF needing
	// AndroidLibs, or static without) or IOSPath.
	AndroidPath, IOSPath string
	AndroidLibs          []string
	// Claims are the paper's claims about the figure, in table order.
	Claims []Claim
}

// Cell is one independently booted System of a battery run. Index is its
// canonical position, the merge key that makes a parallel run
// bit-identical to a sequential one. Test names its one test on a
// per-test figure.
type Cell struct {
	Index  int
	Config Configuration
	Test   string
	lo, hi int // the cell's tests in the battery
}

// Options configures a battery run.
type Options struct {
	// Jobs caps the host workers; <= 0 means GOMAXPROCS, and 1 runs the
	// cells in order on the caller's goroutine (the reference run).
	Jobs int
	// OnSystem, when non-nil, is called with each cell's booted System
	// before its benchmark starts: the place to attach a trace session.
	// With Jobs > 1 it runs concurrently, so it must be thread-safe or
	// write only to state indexed by cell.Index. It must not advance
	// virtual time.
	OnSystem func(Cell, *core.System)
}

// Run runs one group of tests ("" for all) on the four configurations,
// sharding cells across opts.Jobs host workers. runWith runs some tests
// in one configuration, calling its hook with the booted System. Each
// cell has its own System and virtual clock, so the report is
// bit-identical for every Jobs value. Every cell runs even after one
// fails; the lowest-index cell's error is returned.
func Run[T Test, R Result](f *Figure, tests []T, group string, opts Options,
	runWith func(Configuration, []T, func(*core.System)) ([]R, error)) (*Report, error) {
	if group != "" {
		if tests = InGroup(tests, group); len(tests) == 0 {
			return nil, fmt.Errorf("unknown group %q", group)
		}
	}
	rows := make([]Row, len(tests))
	for i, t := range tests {
		rows[i] = t.Row()
	}
	var cells []Cell
	for _, conf := range Configurations() {
		if !f.PerTest {
			cells = append(cells, Cell{Index: len(cells), Config: conf, hi: len(rows)})
			continue
		}
		for i, r := range rows {
			cells = append(cells, Cell{Index: len(cells), Config: conf, Test: r.Name, lo: i, hi: i + 1})
		}
	}
	outs, err := runner.Map(len(cells), opts.Jobs, func(i int) ([]R, error) {
		cell := cells[i]
		var hook func(*core.System)
		if opts.OnSystem != nil {
			hook = func(sys *core.System) { opts.OnSystem(cell, sys) }
		}
		rs, err := runWith(cell.Config, tests[cell.lo:cell.hi], hook)
		if err != nil && !f.RunWrapped {
			err = fmt.Errorf("%s: %s: %w", f.Name, cell.Config.Name, err)
		}
		return rs, err
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Figure: f, Rows: rows, Value: map[string]map[string]float64{}, Failed: map[string]map[string]bool{}}
	for i, rs := range outs {
		for j, r := range rs {
			test, conf := rows[cells[i].lo+j].Name, cells[i].Config.Name
			if rep.Value[test] == nil {
				rep.Value[test], rep.Failed[test] = map[string]float64{}, map[string]bool{}
			}
			rep.Value[test][conf], rep.Failed[test][conf] = r.Measured()
		}
	}
	return rep, nil
}

// RunWith boots conf's System, calls onSystem (when non-nil) with it,
// and asks main for the driver's body, which may first install what the
// driver needs. It installs the body as the figure's driver, a Mach-O or
// an ELF by conf's persona, starts it and runs the System to its end.
// The hook is per run, not a package global, so concurrent batteries
// stay independent; it must not advance virtual time.
//
// RunWith does not close the System: a hook that keeps it owns it and
// calls System.Close once it has audited the post-run state, as the soak
// cells do after reading trace digests and LeakCheck. Otherwise any
// daemons the hook booted stay parked and keep the System in memory.
func (f *Figure) RunWith(conf Configuration, onSystem func(*core.System),
	main func(*core.System) (func(*kernel.Thread), error)) error {
	sys, err := core.NewSystem(conf.System)
	if err != nil {
		return err
	}
	if onSystem != nil {
		onSystem(sys)
	}
	body, err := main(sys)
	if err != nil {
		return err
	}
	key, path := f.Name+"-"+conf.Name, f.AndroidPath
	switch {
	case conf.Persona == persona.IOS:
		path = f.IOSPath
		err = sys.InstallIOSBinary(path, key, nil, kernel.Entry(body))
	case f.AndroidLibs != nil:
		err = sys.InstallAndroidBinary(path, key, f.AndroidLibs, kernel.Entry(body))
	default:
		err = sys.InstallStaticAndroidBinary(path, key, kernel.Entry(body))
	}
	if err != nil {
		return err
	}
	if _, err := sys.Start(path, nil); err != nil {
		return err
	}
	if err = sys.Run(); err != nil && f.RunWrapped {
		err = fmt.Errorf("%s: %s: %w", f.Name, conf.Name, err)
	}
	return err
}

// Report is one figure's measurements: per test and configuration, the
// value (a latency in ns for Fig. 5, work units per second for Fig. 6)
// and whether the test failed. Rows are the tests in figure order.
type Report struct {
	Figure *Figure
	Rows   []Row
	Value  map[string]map[string]float64
	Failed map[string]map[string]bool
}

// Normalized returns test's value in config relative to its baseline
// test's vanilla-Android value (the y-axis). ok is false when either
// side failed.
func (r *Report) Normalized(test, config string) (float64, bool) {
	base := r.base(test)
	b := r.Value[base][ConfigAndroid]
	v, have := r.Value[test][config]
	if !have || b == 0 || r.Failed[base][ConfigAndroid] || r.Failed[test][config] {
		return 0, false
	}
	return v / b, true
}

// base names the test whose vanilla-Android value normalizes test.
func (r *Report) base(test string) string {
	for _, row := range r.Rows {
		if row.Name == test && row.Base != "" {
			return row.Base
		}
	}
	return test
}

// Render produces the figure's table: per test, the vanilla-Android
// value for scale, then the other configurations normalized.
func (r *Report) Render() string {
	f := r.Figure
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-22s %-*s | %14s %14s %14s %14s\n%s\n", f.Title, "test", f.GroupWidth, "group",
		ConfigAndroid+"(abs)", ConfigCiderAndroid, ConfigCiderIOS, ConfigIPad, strings.Repeat("-", f.Rule))
	for i, t := range r.Rows {
		if i == 0 || t.Group != r.Rows[i-1].Group {
			fmt.Fprintf(&b, "· %s\n", f.Groups[t.Group])
		}
		abs := "n/a"
		if v := r.Value[t.Name][ConfigAndroid]; v != 0 && !r.Failed[t.Name][ConfigAndroid] {
			abs = f.Format(v)
		}
		fmt.Fprintf(&b, "%-22s %-*s | %14s", t.Name, f.GroupWidth, t.Group, abs)
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
