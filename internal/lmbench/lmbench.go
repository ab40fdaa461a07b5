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
	"time"

	"repro/internal/core"
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

// BaseName returns the normalization baseline test name.
func (t Test) BaseName() string {
	if t.Base != "" {
		return t.Base
	}
	return t.Name
}

// Result is one (test, configuration) measurement.
type Result struct {
	Test   string
	Group  string
	Config string
	// Latency is the per-operation virtual-time latency.
	Latency time.Duration
	// Failed marks tests that could not complete.
	Failed bool
}

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

// Config names used in reports.
const (
	ConfigAndroid      = "android"
	ConfigCiderAndroid = "cider-android"
	ConfigCiderIOS     = "cider-ios"
	ConfigIPad         = "ipad"
)

// Configuration describes one Fig. 5 column.
type Configuration struct {
	Name   string
	System core.Config
	// Persona selects the compiled form of the benchmark: the GCC-built
	// ELF (Android) or the Xcode-built Mach-O (iOS).
	Persona persona.Kind
}

// Configurations returns the four Fig. 5 configurations in paper order.
func Configurations() []Configuration {
	return []Configuration{
		{ConfigAndroid, core.ConfigVanilla, persona.Android},
		{ConfigCiderAndroid, core.ConfigCider, persona.Android},
		{ConfigCiderIOS, core.ConfigCider, persona.IOS},
		{ConfigIPad, core.ConfigIPad, persona.IOS},
	}
}

// RunWith executes the given tests in one configuration, returning a
// result per test. onSystem, when non-nil, is invoked with the freshly
// booted System before any benchmark process starts. Tests and the CLI
// use it to attach a trace session to the run; it must not advance
// virtual time. The hook is per run, not a package global, so concurrent
// batteries (and concurrent tests) stay independent.
//
// RunWith does not close the System: a hook that keeps it owns it and
// calls System.Close once it has audited the post-run state (the soak
// cells read trace digests and LeakCheck after RunWith returns). Without
// that, any daemons the hook booted stay parked and keep the System in
// memory.
func RunWith(conf Configuration, tests []Test, onSystem func(*core.System)) ([]Result, error) {
	sys, err := core.NewSystem(conf.System)
	if err != nil {
		return nil, err
	}
	if onSystem != nil {
		onSystem(sys)
	}
	// Install the hello-world payloads the process-creation tests exec.
	if sys.AndroidFS != nil {
		if err := sys.InstallStaticAndroidBinary(helloLinux, "lm-hello-linux",
			helloBody); err != nil {
			return nil, err
		}
	}
	if sys.IOSFS != nil {
		if err := sys.InstallIOSBinary(helloIOS, "lm-hello-ios", nil,
			helloBody); err != nil {
			return nil, err
		}
	}

	results := make([]Result, 0, len(tests))
	driver := func(t *kernel.Thread) {
		c := &ctx{t: t, lc: posix.New(conf.Persona, t), sys: sys}
		if conf.Persona == persona.IOS {
			c.toolchain = hw.Xcode421()
		} else {
			c.toolchain = hw.GCC441()
		}
		for _, test := range tests {
			lat, ok := test.run(c)
			results = append(results, Result{
				Test: test.Name, Group: test.Group, Config: conf.Name,
				Latency: lat, Failed: !ok,
			})
		}
	}
	const path = "/bin/lmbench"
	key := "lmbench-" + conf.Name
	if conf.Persona == persona.IOS {
		err = sys.InstallIOSBinary(path, key, nil, wrap(driver))
	} else {
		err = sys.InstallStaticAndroidBinary(path, key, wrap(driver))
	}
	if err != nil {
		return nil, err
	}
	if _, err := sys.Start(path, nil); err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	return results, nil
}
