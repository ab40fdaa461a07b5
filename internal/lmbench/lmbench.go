// Package lmbench ports the lmbench 3.0 microbenchmarks used in the
// paper's Figure 5 to the simulated systems: basic CPU operations,
// syscalls and signals, process creation, and local communication / file
// operations, each run on the four configurations (vanilla Android, Cider
// running the Linux binary, Cider running the iOS binary, and the iPad
// mini) and normalized to vanilla Android.
//
// As in the paper, the tests are compiled twice — "an ELF Linux binary
// version, and a Mach-O iOS binary version, using the standard Linux GCC
// 4.4.1 and Xcode 4.2.1 compilers" — which here means the driver is
// installed as a real ELF or Mach-O image whose compute charges are scaled
// by the matching toolchain model. Each test body is written once, as in
// lmbench's source, against the canonical C library of internal/posix.
package lmbench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/figure"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/posix"
)

// helloLinux and helloIOS are the payloads the proc tests exec.
const (
	helloLinux = "/bin/hello-linux"
	helloIOS   = "/bin/hello-ios"
)

// ctx is the environment a test body runs in.
type ctx struct {
	t         *kernel.Thread
	lc        posix.Libc
	sys       *core.System
	toolchain *hw.Toolchain
}

// compute charges n operations of class op, through the binary's compiler
// model — the source of the intdiv difference in the basic-ops group.
func (c *ctx) compute(op hw.CPUOp, n int64) {
	cpu := c.sys.Kernel.Device().CPU
	d := cpu.OpTime(op, n)
	c.t.Charge(time.Duration(float64(d) * c.toolchain.OpScale(op)))
}

// Test is one lmbench measurement.
type Test struct {
	// Name matches the Fig. 5 x-axis label.
	Name string
	// Group is the Fig. 5 cluster ("basic", "syscall", "proc", "comm").
	Group string
	// Base names the test whose vanilla-Android latency normalizes this
	// one. Empty means itself; the fork+exec(ios)/fork+sh(ios) tests are
	// impossible on vanilla Android and are normalized against their
	// android variants, as the paper does ("the comparison is
	// intentionally unfair and skews the results against this test").
	Base string
	// run returns the per-operation latency; ok=false means the test
	// could not complete on this configuration (e.g. select(250) on the
	// iPad, fork+exec(ios) on vanilla Android).
	run func(c *ctx) (time.Duration, bool)
}

// Row is the test's row of the Fig. 5 table.
func (t Test) Row() figure.Row { return figure.Row{Name: t.Name, Group: t.Group, Base: t.Base} }

// Result is one (test, configuration) measurement.
type Result struct {
	Test, Config string
	// Latency is the per-operation virtual-time latency.
	Latency time.Duration
	// Failed marks tests that could not complete.
	Failed bool
}

// Measured is the latency, in ns, and whether the test failed.
func (r Result) Measured() (float64, bool) { return float64(r.Latency), r.Failed }

// iters is the default measurement loop count.
const iters = 64

// measure times one operation repeated n times.
func measure(c *ctx, n int, op func()) time.Duration {
	start := c.t.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return (c.t.Now() - start) / time.Duration(n)
}

// fig5 is Figure 5 as data for the shared frame: one cell per
// (configuration, test), because every test boots from the same
// cold-start System state (see TestParallelCellsMatchBatch).
var fig5 = &figure.Figure{
	Name:       "lmbench",
	Title:      "Figure 5: lmbench latencies normalized to vanilla Android (lower is better)",
	GroupWidth: 7,
	Rule:       98,
	Groups: map[string]string{
		"basic":   "basic CPU operations",
		"syscall": "syscalls and signals",
		"proc":    "process creation",
		"comm":    "local communication and file operations",
	},
	Format:      func(v float64) string { return fmtDur(time.Duration(v)) },
	PerTest:     true,
	AndroidPath: "/bin/lmbench",
	IOSPath:     "/bin/lmbench",
	Claims:      claims,
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
}

// Run runs one group of the battery ("" for all of it) on the four
// configurations: Figure 5, latency normalized to vanilla Android.
func Run(group string, opts figure.Options) (*figure.Report, error) {
	return figure.Run(fig5, AllTests(), group, opts, RunWith)
}

// Configurations returns the four configurations in paper order (kept
// for hostbench).
func Configurations() []figure.Configuration { return figure.Configurations() }

// Cell is one (configuration, test) pair of the battery.
type Cell struct {
	Config figure.Configuration
	Test   Test
}

// Cells enumerates the battery's cells in the order figure.Run indexes
// them: configurations in paper order, tests in battery order.
func Cells(tests []Test) []Cell {
	var cells []Cell
	for _, conf := range figure.Configurations() {
		for _, t := range tests {
			cells = append(cells, Cell{conf, t})
		}
	}
	return cells
}

// RunWith executes the given tests in one configuration, returning a
// result per test; see figure.Figure.RunWith for onSystem.
func RunWith(conf figure.Configuration, tests []Test, onSystem func(*core.System)) ([]Result, error) {
	results := make([]Result, 0, len(tests))
	err := fig5.RunWith(conf, onSystem, func(sys *core.System) (func(*kernel.Thread), error) {
		// Install the hello-world payloads the process-creation tests exec.
		if sys.AndroidFS != nil {
			if err := sys.InstallStaticAndroidBinary(helloLinux, "lm-hello-linux", helloBody); err != nil {
				return nil, err
			}
		}
		if sys.IOSFS != nil {
			if err := sys.InstallIOSBinary(helloIOS, "lm-hello-ios", nil, helloBody); err != nil {
				return nil, err
			}
		}
		return func(t *kernel.Thread) {
			c := &ctx{t: t, lc: posix.New(conf.Persona, t), sys: sys}
			if conf.Persona == persona.IOS {
				c.toolchain = hw.Xcode421()
			} else {
				c.toolchain = hw.GCC441()
			}
			for _, test := range tests {
				lat, ok := test.run(c)
				results = append(results, Result{Test: test.Name, Config: conf.Name, Latency: lat, Failed: !ok})
			}
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
