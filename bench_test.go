// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), plus ablations for the design choices DESIGN.md
// calls out. Each benchmark runs the corresponding workload on the
// simulated devices and reports the *virtual-time* results as metrics:
// normalized ratios exactly as the figures plot them (Fig. 5: latency,
// lower is better; Fig. 6: throughput, higher is better).
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bionic"
	"repro/internal/core"
	"repro/internal/figure"
	"repro/internal/graphics"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/lmbench"
	"repro/internal/passmark"
	"repro/internal/prog"
	"repro/internal/trace"
)

// TestTraceZeroCost asserts the observability layer's core invariant:
// attaching a trace session must not change any virtual-time result. The
// full Fig. 5 battery runs untraced and traced; every latency must be
// bit-identical. (The untraced run is the disabled-sink case the
// BenchmarkFig5* numbers rely on.) Sessions are per experiment cell —
// each cell is its own System — written into index-distinct slots, the
// thread-safety pattern figure.Options.OnSystem documents.
func TestTraceZeroCost(t *testing.T) {
	run := func(traced bool) (*figure.Report, []*trace.Session) {
		t.Helper()
		var opts figure.Options
		var sessions []*trace.Session
		if traced {
			sessions = make([]*trace.Session, len(lmbench.Cells(lmbench.AllTests())))
			opts.OnSystem = func(cell figure.Cell, sys *core.System) {
				s := sys.EnableTrace()
				s.Label = cell.Config.Name + "/" + cell.Test
				sessions[cell.Index] = s
			}
		}
		rep, err := lmbench.Run("", opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep, sessions
	}
	plain, _ := run(false)
	traced, sessions := run(true)
	for test, byCfg := range plain.Value {
		for cfg, want := range byCfg {
			if got := traced.Value[test][cfg]; got != want {
				t.Errorf("%s/%s: traced latency %v != untraced %v", test, cfg, got, want)
			}
			if plain.Failed[test][cfg] != traced.Failed[test][cfg] {
				t.Errorf("%s/%s: traced failure state differs", test, cfg)
			}
		}
	}
	// The invariance check is only meaningful if the traced run actually
	// collected data: every cell must have attached a session, and every
	// configuration must have recorded syscall histograms somewhere in its
	// cells (basic-op cells barely syscall, so the presence check is per
	// configuration, not per cell).
	sawSyscalls := map[string]bool{}
	for _, s := range sessions {
		if s == nil {
			t.Fatal("a cell ran without attaching a session")
		}
		if len(s.Summarize(false).Syscalls) > 0 {
			sawSyscalls[strings.SplitN(s.Label, "/", 2)[0]] = true
		}
	}
	for _, conf := range figure.Configurations() {
		if !sawSyscalls[conf.Name] {
			t.Errorf("configuration %q recorded no syscalls in any cell", conf.Name)
		}
	}
}

// reportFig runs one group of a figure's battery and reports each
// test's normalized values as benchmark metrics.
func reportFig(b *testing.B, run func(string, figure.Options) (*figure.Report, error), group string) {
	b.Helper()
	var rep *figure.Report
	for i := 0; i < b.N; i++ {
		r, err := run(group, figure.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	for _, t := range rep.Rows {
		for _, cfg := range []string{figure.ConfigCiderAndroid, figure.ConfigCiderIOS, figure.ConfigIPad} {
			if v, ok := rep.Normalized(t.Name, cfg); ok {
				b.ReportMetric(v, metricName(t.Name, cfg))
			}
		}
	}
}

// BenchmarkFig5BasicOps regenerates the Fig. 5 basic CPU operations group
// (int mul/div, double add/mul, bogomflops) on all four configurations.
func BenchmarkFig5BasicOps(b *testing.B) { reportFig(b, lmbench.Run, "basic") }

// BenchmarkFig5Syscall regenerates the Fig. 5 syscall and signal group
// (null syscall, read, write, open/close, signal handler).
func BenchmarkFig5Syscall(b *testing.B) { reportFig(b, lmbench.Run, "syscall") }

// BenchmarkFig5Proc regenerates the Fig. 5 process-creation group
// (fork+exit, fork+exec and fork+sh in android/ios variants).
func BenchmarkFig5Proc(b *testing.B) { reportFig(b, lmbench.Run, "proc") }

// BenchmarkFig5IPC regenerates the Fig. 5 local communication and file
// operations group (pipe, AF_UNIX, select 10/100/250, file create/delete).
func BenchmarkFig5IPC(b *testing.B) { reportFig(b, lmbench.Run, "comm") }

// BenchmarkFig6CPU regenerates the Fig. 6 CPU group (integer, floating
// point, primes, string sort, encryption, compression).
func BenchmarkFig6CPU(b *testing.B) { reportFig(b, passmark.Run, "cpu") }

// BenchmarkFig6Storage regenerates the Fig. 6 storage write/read group.
func BenchmarkFig6Storage(b *testing.B) { reportFig(b, passmark.Run, "storage") }

// BenchmarkFig6Memory regenerates the Fig. 6 memory write/read group.
func BenchmarkFig6Memory(b *testing.B) { reportFig(b, passmark.Run, "memory") }

// BenchmarkFig6Graphics2D regenerates the Fig. 6 2D graphics group
// (solid/transparent/complex vectors, image rendering, image filters).
func BenchmarkFig6Graphics2D(b *testing.B) { reportFig(b, passmark.Run, "2d") }

// BenchmarkFig6Graphics3D regenerates the Fig. 6 3D graphics group
// (simple and complex scenes).
func BenchmarkFig6Graphics3D(b *testing.B) { reportFig(b, passmark.Run, "3d") }

// Ablations ------------------------------------------------------------

// forkExitLatency measures iOS fork+exit on a Cider system built with
// opts.
func forkExitLatency(b *testing.B, opts core.Options) time.Duration {
	b.Helper()
	sys, err := core.NewSystem(core.ConfigCider, opts)
	if err != nil {
		b.Fatal(err)
	}
	var elapsed time.Duration
	if err := sys.InstallIOSBinary("/bin/fx", "fx", nil, func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		lc := libsystem.Sys(th)
		start := th.Now()
		pid := lc.Fork(func(cc *libsystem.C) { cc.Exit(0) })
		lc.Wait(pid)
		elapsed = th.Now() - start
		return 0
	}); err != nil {
		b.Fatal(err)
	}
	sys.Start("/bin/fx", nil)
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	return elapsed
}

// BenchmarkAblationSharedCache compares iOS fork latency on Cider with and
// without dyld's prelinked shared cache — the optimization the iPad has
// and the Cider prototype lacks (Section 6.2).
func BenchmarkAblationSharedCache(b *testing.B) {
	var off, on time.Duration
	for i := 0; i < b.N; i++ {
		f := false
		tr := true
		off = forkExitLatency(b, core.Options{SharedCache: &f})
		on = forkExitLatency(b, core.Options{SharedCache: &tr})
	}
	b.ReportMetric(float64(off.Nanoseconds()), "fork-no-cache:vns")
	b.ReportMetric(float64(on.Nanoseconds()), "fork-with-cache:vns")
	b.ReportMetric(float64(off)/float64(on), "speedup:x")
}

// BenchmarkAblationDiplomatAggregation compares per-call diplomats against
// one aggregated arbitration per frame — the paper's proposed optimization
// ("aggregating OpenGL ES calls into a single diplomat").
func BenchmarkAblationDiplomatAggregation(b *testing.B) {
	var perCall, batched time.Duration
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(core.ConfigCider)
		if err != nil {
			b.Fatal(err)
		}
		const calls = 1000
		if err := sys.InstallIOSBinary("/bin/agg", "agg", nil, func(c *prog.Call) uint64 {
			th := c.Ctx.(*kernel.Thread)
			gles := sys.Gfx.GLES
			// Warm a context for direct invocation inside the batch.
			s, _ := sys.Gfx.SF.CreateSurface(th, "agg", 640, 480)
			glctx := gles.NewContext(s)
			gles.MakeCurrent(th, glctx)

			// Per-call diplomats.
			dip := sys.Diplomat.Wrap("/system/lib/libGLESv2.so#glEnable")
			dip(&prog.Call{Ctx: th}) // warm resolution cache
			start := th.Now()
			for k := 0; k < calls; k++ {
				dip(&prog.Call{Ctx: th})
			}
			perCall = th.Now() - start

			// One aggregated diplomat per frame.
			start = th.Now()
			sys.Diplomat.Batch(th, func() {
				for k := 0; k < calls; k++ {
					gles.Invoke(th, "glEnable", nil)
				}
			})
			batched = th.Now() - start
			return 0
		}); err != nil {
			b.Fatal(err)
		}
		sys.Start("/bin/agg", nil)
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perCall.Nanoseconds()), "per-call:vns")
	b.ReportMetric(float64(batched.Nanoseconds()), "aggregated:vns")
	b.ReportMetric(float64(perCall)/float64(batched), "speedup:x")
}

// BenchmarkAblationFenceFix compares the Cider GLES library's buggy fence
// synchronization against the repaired version on the image-rendering
// workload it degrades (Section 6.3).
func BenchmarkAblationFenceFix(b *testing.B) {
	measure := func(fixed bool) time.Duration {
		sys, err := core.NewSystem(core.ConfigCider, core.Options{FixFences: &fixed})
		if err != nil {
			b.Fatal(err)
		}
		var elapsed time.Duration
		if err := sys.InstallIOSBinary("/bin/fence", "fence", nil, func(c *prog.Call) uint64 {
			th := c.Ctx.(*kernel.Thread)
			gl, gerr := sysBindGL(th)
			if gerr != nil {
				b.Error(gerr)
				return 1
			}
			ctx := gl.Call("_EAGLContextCreate")
			gl.Call("_EAGLContextSetCurrent", ctx)
			gl.Call("_EAGLRenderbufferStorageFromDrawable", ctx, 640, 480)
			start := th.Now()
			for i := 0; i < 32; i++ {
				gl.Call("_glTexImage2D", 0, 0, 0, 128, 128, 0, 0, 0, 0)
				gl.Call("_glDrawArrays", 4, 0, 64)
				gl.Call("_glFenceSync", 0, 0)
				gl.Call("_glClientWaitSync", 0, 0, 0)
			}
			elapsed = th.Now() - start
			return 0
		}); err != nil {
			b.Fatal(err)
		}
		sys.Start("/bin/fence", nil)
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		return elapsed
	}
	var buggy, fixed time.Duration
	for i := 0; i < b.N; i++ {
		buggy = measure(false)
		fixed = measure(true)
	}
	b.ReportMetric(float64(buggy.Nanoseconds()), "buggy:vns")
	b.ReportMetric(float64(fixed.Nanoseconds()), "fixed:vns")
	b.ReportMetric(float64(buggy)/float64(fixed), "speedup:x")
}

// BenchmarkAblationPersonaCheck isolates the 8.5% null-syscall overhead:
// the per-entry persona check on, then forced off.
func BenchmarkAblationPersonaCheck(b *testing.B) {
	measure := func(disable bool) time.Duration {
		sys, err := core.NewSystem(core.ConfigCider)
		if err != nil {
			b.Fatal(err)
		}
		if disable {
			sys.Kernel.Costs().PersonaCheck = 0
		}
		var per time.Duration
		if err := sys.InstallStaticAndroidBinary("/bin/null", "null", func(c *prog.Call) uint64 {
			th := c.Ctx.(*kernel.Thread)
			lc := bionic.Sys(th)
			const iters = 1000
			start := th.Now()
			for i := 0; i < iters; i++ {
				lc.GetPPID()
			}
			per = (th.Now() - start) / iters
			return 0
		}); err != nil {
			b.Fatal(err)
		}
		sys.Start("/bin/null", nil)
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		return per
	}
	var with, without time.Duration
	for i := 0; i < b.N; i++ {
		with = measure(false)
		without = measure(true)
	}
	b.ReportMetric(float64(with.Nanoseconds()), "with-check:vns")
	b.ReportMetric(float64(without.Nanoseconds()), "no-check:vns")
	b.ReportMetric(float64(with)/float64(without), "overhead:x")
}

// metricName builds a whitespace-free benchmark metric label.
func metricName(test, cfg string) string {
	return strings.ReplaceAll(test, " ", "-") + "/" + cfg + ":x"
}

// sysBindGL binds the iOS GL surface in a benchmark body.
func sysBindGL(th *kernel.Thread) (*graphics.GL, error) {
	return graphics.BindIOSGL(th)
}
