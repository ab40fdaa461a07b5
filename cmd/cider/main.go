// Command cider boots a full Cider device and demonstrates the paper's
// headline capability end to end: iOS and Android apps running side by
// side on the same (simulated) Nexus 7 — the iOS app launched from the
// Android Launcher through CiderPress, receiving multi-touch input through
// the eventpump, rendering via diplomatic OpenGL ES, and talking to the
// copied iOS service daemons over duct-taped Mach IPC. Its subcommands
// regenerate the paper's figures and drive the repository's gates.
//
// Usage:
//
//	cider [--trace]        run the side-by-side demo; with --trace, attach
//	                       a ktrace session and dump it after the run
//	cider stats [--json] [--jobs N]
//	                       run the Fig. 5 syscall battery under tracing on
//	                       the android / cider-android / cider-ios
//	                       configurations (one host worker per
//	                       configuration, up to N) and print per-syscall
//	                       histograms plus the null-syscall overhead
//	                       decomposition; --json emits one machine-readable
//	                       document with both
//	cider soak [--jobs N] [--quick] [--full] [--schedule NAME[,NAME...]]
//	           [--verify] [--explore N] [--artifact-dir DIR]
//	                       run the Fig. 5 battery (plus a dedicated Mach IPC
//	                       workload; --full adds Fig. 6) under the
//	                       deterministic fault-schedule matrix (or the
//	                       listed schedules) and check the
//	                       error-path invariants: identical digests at any
//	                       jobs level, leak-free kernels, no deadlocks, and
//	                       no simulated process left running afterwards;
//	                       --verify runs each schedule once at jobs=1 (the
//	                       report) and once at jobs=N, and compares
//	                       digests; --explore N runs N
//	                       seeded perturbations of every ambiguous scheduler
//	                       decision per schedule (DPOR-lite) and writes a
//	                       minimized replay artifact per failure
//	cider replay <artifact.json>
//	                       re-execute a recorded soak/diffcheck cell from a
//	                       replay artifact, bit-identically and in
//	                       isolation, and assert digest equality against
//	                       the recorded run
//	cider crashes          boot the service tree, crash two iOS apps with
//	                       fatal faults, and print the crash reports
//	                       crashreporterd wrote to /var/log/crashes plus
//	                       the exception/supervision counters
//	cider diffcheck [--seeds N] [--jobs N] [--corpus DIR] [--no-minimize]
//	                [--update-allowlist] [--explore N] [--artifact-dir DIR]
//	                       run the differential persona oracle: execute N
//	                       seeded programs under both personas and diff the
//	                       canonicalized results; unallowlisted divergences
//	                       are minimized and reported (exit nonzero) with a
//	                       replay artifact each, and --corpus writes each
//	                       diverging program's text to DIR;
//	                       --update-allowlist prints suggested allowlist
//	                       entries (the Why citation still has to be
//	                       written by hand — that is the policy);
//	                       --explore N re-runs every persona pair under N
//	                       perturbed schedules and writes a minimized
//	                       replay artifact per residual divergence
//	cider fig5 [-group basic|syscall|proc|comm] [-jobs N]
//	cider fig6 [-group cpu|storage|memory|2d|3d] [-jobs N]
//	                       regenerate Figure 5 (lmbench latencies) or 6
//	                       (PassMark throughput) on all four
//	                       configurations, normalized to vanilla Android;
//	                       the same bytes for every N host workers
//	cider macho [-sample] <file>
//	                       inspect a Mach-O image, or write a sample one
//	cider ipa build|decrypt|info [-name App] [-bundle ID] [-key SEED] <file>...
//	                       build, decrypt or inspect an encrypted .ipa
//	cider ducttape         print the duct tape link reports (Section 4.2)
//
// Exit status: 0 on success, 2 on a malformed command line, 1 on any
// other failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/input"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/lmbench"
	"repro/internal/passmark"
	"repro/internal/prog"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/trace"
	"repro/internal/uikit"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, errFlags) {
		fmt.Fprintf(os.Stderr, "cider: %v\n", err)
	}
	os.Exit(exitCode(err))
}

// errUsage marks a malformed command line; errFlags one the flag package
// has already reported on stderr, with the subcommand's usage.
var (
	errUsage = errors.New("usage")
	errFlags = fmt.Errorf("%w: flags", errUsage)
)

// exitCode maps run's error to the process status: 0 on success, 2 on a
// malformed command line (a help request included), 1 otherwise.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	return 1
}

// commands are cider's subcommands, in usage order. With no arguments,
// or a flag first, cider runs the demo.
var commands = []struct {
	name string
	run  func(args []string, stdout io.Writer) error
}{
	{"stats", runStats},
	{"soak", runSoak},
	{"replay", runReplay},
	{"crashes", runCrashes},
	{"diffcheck", runDiffcheck},
	{"fig5", runFig5},
	{"fig6", runFig6},
	{"macho", runMacho},
	{"ipa", runIPA},
	{"ducttape", runDucttape},
}

// run dispatches one command line and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runDemo(args, stdout)
	}
	names := make([]string, len(commands))
	for i, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:], stdout)
		}
		names[i] = c.name
	}
	return fmt.Errorf("%w: unknown command %q; commands: %s (none: the demo)",
		errUsage, args[0], strings.Join(names, ", "))
}

// newFlags returns a subcommand's flag set: a parse error or a help
// request comes back from parse instead of exiting.
func newFlags(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// parse parses args into fs; a bad flag or a help request is a usage
// error.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}
	return nil
}

// jobsFlag defines the -jobs flag every battery-running subcommand takes.
func jobsFlag(fs *flag.FlagSet) *int {
	return fs.Int("jobs", 0, "max parallel host workers (<=0: GOMAXPROCS)")
}

// runToEnd runs sys to completion. On deadlock the error carries the
// wait-graph snapshot: which procs were parked, on what, and at which
// virtual time.
func runToEnd(sys *core.System) error {
	err := sys.Run()
	var dl *sim.ErrDeadlock
	if errors.As(err, &dl) {
		return fmt.Errorf("%w\n%s", err, strings.TrimSuffix(dl.Report(), "\n"))
	}
	return err
}

func runDemo(args []string, stdout io.Writer) error {
	fs := newFlags("cider")
	traced := fs.Bool("trace", false, "attach a ktrace session and dump it after the run")
	if err := parse(fs, args); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "== booting Cider on a simulated Nexus 7 (Android 4.2) ==")
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		return err
	}
	defer sys.Close()
	if *traced {
		sys.EnableTrace()
	}
	fmt.Fprintf(stdout, "  kernel: %s  device: %s\n", sys.Kernel.Profile(), sys.Kernel.Device().Name)
	fmt.Fprintf(stdout, "  iOS base image: %d dylibs\n", len(core.IOSDylibs()))
	fmt.Fprintf(stdout, "  GL diplomats generated: %d\n", len(sys.GLSpecs))

	if _, err := sys.BootServices(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "  launchd started (spawns configd, notifyd, syslogd)")

	// An ordinary Android app runs alongside.
	var androidRan bool
	if err := sys.InstallStaticAndroidBinary("/system/bin/androidapp", "androidapp", func(c *prog.Call) uint64 {
		androidRan = true
		return 0
	}); err != nil {
		return err
	}

	// The iOS app: renders, handles gestures, logs to syslogd.
	var taps int
	var frames int
	if err := sys.InstallIOSBinary("/Applications/Demo.app/Demo", "demo-app", nil, func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		lc := libsystem.Sys(th)
		return uikit.Main(th, uikit.Delegate{
			OnLaunch: func(app *uikit.App) {
				if port, err := services.WaitForService(lc, services.SyslogdName, 100); err == nil {
					services.Syslog(lc, port, "Demo[1]: launched on "+th.Kernel().Device().Name)
				}
				app.GL.Call("_glClearColor", 0, 0, 0, 1)
				app.GL.Call("_glClear", 0x4000)
				app.Present()
				frames = app.Frames
			},
			OnGesture: func(app *uikit.App, g input.Gesture) {
				if g.Kind == input.GestureTap {
					taps++
					app.GL.Call("_glClear", 0x4000)
					app.GL.Call("_glDrawArrays", 4, 0, 128)
					app.Present()
					frames = app.Frames
				}
			},
		})
	}); err != nil {
		return err
	}

	// Launch through CiderPress, as the Launcher shortcut would.
	if _, err := sys.LaunchIOSApp("/Applications/Demo.app/Demo"); err != nil {
		return err
	}
	if _, err := sys.Start("/system/bin/androidapp", nil); err != nil {
		return err
	}

	// A touch driver playing the user.
	if err := sys.InstallStaticAndroidBinary("/system/bin/user", "user", func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		th.Charge(80 * time.Millisecond)
		for i := 0; i < 3; i++ {
			sys.Input.Inject(th, input.Event{Type: input.TouchDown, X: 640, Y: 400})
			th.Charge(5 * time.Millisecond)
			sys.Input.Inject(th, input.Event{Type: input.TouchUp, X: 640, Y: 400})
			th.Charge(30 * time.Millisecond)
		}
		sys.Input.Inject(th, input.Event{Type: input.Lifecycle, Code: input.LifecycleStop})
		return 0
	}); err != nil {
		return err
	}
	if _, err := sys.Start("/system/bin/user", nil); err != nil {
		return err
	}

	if err := runToEnd(sys); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\n== session ==")
	fmt.Fprintf(stdout, "  android app ran alongside:  %v\n", androidRan)
	fmt.Fprintf(stdout, "  taps delivered to iOS app:  %d\n", taps)
	fmt.Fprintf(stdout, "  frames presented:           %d\n", frames)
	fmt.Fprintf(stdout, "  diplomatic calls:           %d\n", sys.Diplomat.Calls())
	sent, recvd := sys.IPC.Stats()
	fmt.Fprintf(stdout, "  mach messages sent/recvd:   %d/%d\n", sent, recvd)
	fmt.Fprintf(stdout, "  compositor frames / flips:  %d/%d\n", sys.Gfx.SF.Frames(), sys.FB.Flips())
	fmt.Fprintf(stdout, "  CiderPress launches:        %d (exit status %d)\n",
		sys.CiderPress.Launches(), sys.CiderPress.LastStatus())
	fmt.Fprintln(stdout, "  syslog:")
	for _, line := range sys.Syslog.Lines() {
		fmt.Fprintf(stdout, "    %s\n", line)
	}
	if n := sys.Syslog.Dropped(); n > 0 {
		fmt.Fprintf(stdout, "    (%d earlier lines dropped by the ring)\n", n)
	}
	if sys.Trace.Enabled() {
		fmt.Fprintln(stdout, "\n== ktrace ==")
		fmt.Fprint(stdout, sys.Trace.Text())
	}
	return nil
}

// runCrashes demonstrates the crash-containment pipeline end to end on
// one simulated device: two iOS apps take fatal faults, the kernel
// translates them into Mach exceptions, crashreporterd (spawned and
// supervised by launchd) receives the host-level EXC_CRASH messages and
// writes deterministic reports into the VFS, which are then read back
// and printed together with the exception/supervision counters.
func runCrashes(args []string, stdout io.Writer) error {
	if err := parse(newFlags("crashes"), args); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "== crash containment: two iOS apps fault under a supervised service tree ==")
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		return err
	}
	defer sys.Close()
	sys.EnableTrace()
	if _, err := sys.BootServices(); err != nil {
		return err
	}

	// An app that takes a wild-pointer fault shortly after launch, and one
	// that aborts a little later. Both are iOS-persona, so the fatal
	// signal rides the Mach exception path, not the Linux one.
	crasher := func(after time.Duration, sig int) prog.Func {
		return func(c *prog.Call) uint64 {
			th := c.Ctx.(*kernel.Thread)
			lc := libsystem.Sys(th)
			th.Charge(after)
			lc.Kill(lc.GetPID(), sig)
			return 0
		}
	}
	apps := []struct {
		path  string
		key   string
		after time.Duration
		sig   int
	}{
		{"/Applications/Faulty.app/Faulty", "faulty-app", 40 * time.Millisecond, 11 /* SIGSEGV */},
		{"/Applications/Abort.app/Abort", "abort-app", 120 * time.Millisecond, 6 /* SIGABRT */},
	}
	for _, a := range apps {
		if err := sys.InstallIOSBinary(a.path, a.key, nil, crasher(a.after, a.sig)); err != nil {
			return err
		}
		if _, err := sys.Start(a.path, nil); err != nil {
			return err
		}
	}
	// A bystander that outlives both crashes: the simulation ends when
	// the last ordinary process exits, so this gives crashreporterd the
	// virtual time to drain its queue.
	if err := sys.InstallStaticAndroidBinary("/system/bin/bystander", "bystander", func(c *prog.Call) uint64 {
		c.Ctx.(*kernel.Thread).Charge(300 * time.Millisecond)
		return 0
	}); err != nil {
		return err
	}
	if _, err := sys.Start("/system/bin/bystander", nil); err != nil {
		return err
	}

	if err := runToEnd(sys); err != nil {
		return err
	}

	nodes, err := sys.IOSFS.ReadDir(services.CrashLogDir)
	if err != nil {
		return fmt.Errorf("reading %s: %w", services.CrashLogDir, err)
	}
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		names = append(names, n.Name())
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "\n== %d crash report(s) in %s ==\n", len(names), services.CrashLogDir)
	for _, name := range names {
		body, rerr := sys.IOSFS.ReadFile(services.CrashLogDir + "/" + name)
		if rerr != nil {
			return rerr
		}
		fmt.Fprintf(stdout, "--- %s ---\n", name)
		for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
			fmt.Fprintf(stdout, "    %s\n", line)
		}
	}
	fmt.Fprintln(stdout, "\n== counters ==")
	for _, c := range sys.Trace.Counters() {
		switch c.Name {
		case trace.CounterExcRaised, trace.CounterExcResumed, trace.CounterCrashReports,
			trace.CounterLaunchdCrashes, trace.CounterLaunchdRespawns, trace.CounterLaunchdThrottled:
			fmt.Fprintf(stdout, "  %-18s %d\n", c.Name, c.Value)
		}
	}
	return nil
}

// runSoak drives the Fig. 5/6 batteries (plus the dedicated Mach IPC
// workload) under the fault-schedule matrix, or the comma-separated
// schedules named, and reports the three invariants: deterministic
// digests, leak-free kernels, no deadlocks. Benchmark cells failing
// under injection is expected and reported as a count, not an error; a
// finding (leak or deadlock) exits nonzero. With --explore N it explores
// each schedule's cells instead (see runExplore).
func runSoak(args []string, stdout io.Writer) (err error) {
	fs := newFlags("soak")
	jobs := jobsFlag(fs)
	quick := fs.Bool("quick", false, "reduced lmbench battery (the verify smoke)")
	full := fs.Bool("full", false, "also run the Fig. 6 PassMark battery")
	schedule := fs.String("schedule", "", "comma-separated schedule names to run (default: whole matrix)")
	verify := fs.Bool("verify", false, "run each schedule at jobs=1 and jobs=N and compare digests")
	rounds := fs.Int("explore", 0, "run N seeded schedule perturbations per schedule (DPOR-lite)")
	artifactDir := fs.String("artifact-dir", "", "directory for failure replay artifacts (default: temp dir)")
	if err := parse(fs, args); err != nil {
		return err
	}
	base := runtime.NumGoroutine()
	defer func() {
		// Every cell closes its System after the audit; a goroutine
		// still running now is a simulated process nobody released,
		// holding its whole System in memory.
		if err == nil {
			if gerr := runner.AwaitGoroutines(base, 5*time.Second); gerr != nil {
				err = fmt.Errorf("soak: %w", gerr)
			}
		}
	}()

	scheds := soak.Schedules()
	if *schedule != "" {
		scheds = scheds[:0]
		for _, name := range strings.Split(*schedule, ",") {
			s, ok := soak.ScheduleByName(name)
			if !ok {
				return fmt.Errorf("soak: unknown schedule %q", name)
			}
			scheds = append(scheds, s)
		}
	}
	opts := soak.Options{Jobs: *jobs, Full: *full, ArtifactDir: *artifactDir}
	if *quick {
		opts.Tests = soak.QuickTests()
	}
	if *rounds > 0 {
		suites := make([]replay.Suite, len(scheds))
		for i, s := range scheds {
			suites[i] = soak.Suite(s, opts)
		}
		return runExplore(stdout, *rounds, *jobs, *artifactDir, suites...)
	}

	battery := "full lmbench"
	if *quick {
		battery = "quick (syscall/comm/proc)"
	}
	if *full {
		battery += " + passmark"
	}
	fmt.Fprintf(stdout, "== soak: %d schedule(s), battery: %s ==\n", len(scheds), battery)
	fmt.Fprintf(stdout, "%-14s %-18s %6s %7s %9s  %s\n", "schedule", "digest", "cells", "failed", "injected", "verdict")

	// With verify, the jobs=1 run is both the report and the reference
	// the jobs=N run must reproduce.
	seq, par := opts, opts
	if *verify {
		seq.Jobs = 1
		par.Jobs = *jobs
		if *jobs <= 1 {
			par.Jobs = 4
		}
	}
	bad := false
	for _, s := range scheds {
		r := soak.RunSchedule(s, seq)
		verdict := "ok"
		if len(r.Findings) > 0 {
			verdict = fmt.Sprintf("%d FINDING(S)", len(r.Findings))
			bad = true
		}
		if *verify {
			if err := soak.VerifyDeterminism(r, soak.RunSchedule(s, par)); err != nil {
				verdict += "  NONDETERMINISTIC"
				bad = true
			} else {
				verdict += fmt.Sprintf("  deterministic@jobs=%d", par.Jobs)
			}
		}
		fmt.Fprintf(stdout, "%-14s %016x %6d %7d %9d  %s\n",
			r.Schedule, r.Digest, r.Cells, r.FailedCells, r.Injected, verdict)
		if r.Counters[trace.CounterLaunchdCrashes]+r.Counters[trace.CounterExcRaised] > 0 {
			fmt.Fprintf(stdout, "    supervision: crashes=%d respawns=%d throttled=%d exceptions=%d reports=%d\n",
				r.Counters[trace.CounterLaunchdCrashes], r.Counters[trace.CounterLaunchdRespawns],
				r.Counters[trace.CounterLaunchdThrottled], r.Counters[trace.CounterExcRaised],
				r.Counters[trace.CounterCrashReports])
		}
		for _, f := range r.Findings {
			fmt.Fprintf(stdout, "    finding: %s\n", f)
		}
	}
	if bad {
		return fmt.Errorf("soak: invariant violations found")
	}
	return nil
}

// runExplore drives the DPOR-lite schedule explorer over soak schedules
// or diffcheck persona pairs alike: every cell of every suite re-runs
// under N seeded perturbations of the scheduler's ambiguous decisions,
// and any invariant violation or divergence arrives as a minimized
// replay artifact. One table row per suite.
func runExplore(stdout io.Writer, rounds, jobs int, artifactDir string, suites ...replay.Suite) error {
	fmt.Fprintf(stdout, "== explore: %d suite(s) x %d perturbation round(s) ==\n", len(suites), rounds)
	fmt.Fprintf(stdout, "%-14s %-18s %9s %10s %10s  %s\n", "suite", "digest", "cell-runs", "decisions", "perturbed", "verdict")
	bad := false
	for _, su := range suites {
		r := replay.Explore(su, rounds, jobs, artifactDir)
		verdict := "ok"
		if len(r.Findings) > 0 {
			verdict = fmt.Sprintf("%d FINDING(S)", len(r.Findings))
			bad = true
		}
		fmt.Fprintf(stdout, "%-14s %016x %9d %10d %10d  %s\n", r.Name, r.Digest, r.Runs, r.Decisions, r.Perturbed, verdict)
		for _, f := range r.Findings {
			fmt.Fprintf(stdout, "    finding: %s\n", f)
		}
	}
	if bad {
		return fmt.Errorf("explore: findings on perturbed schedules")
	}
	return nil
}

// cellFor rebuilds the cell an artifact recorded, by artifact kind.
var cellFor = map[string]func(*replay.Artifact) (replay.Cell, error){
	replay.KindSoak:      soak.CellFor,
	replay.KindDiffcheck: diffcheck.CellFor,
}

// runReplay re-executes one recorded cell from an artifact file and
// asserts digest equality against the recorded run.
func runReplay(args []string, stdout io.Writer) error {
	fs := newFlags("replay")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%w: cider replay <artifact.json>", errUsage)
	}
	a, err := replay.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	c, err := cellFor[a.Kind](a)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "== replay: %s %s ==\n", a.Kind, a.Label())
	o, got, err := replay.Replay(c, a)
	if o == nil {
		return err
	}
	fmt.Fprintf(stdout, "  decisions: %d recorded, %d replayed (%d non-canonical)\n",
		a.DecisionCount, got.DecisionCount, len(a.Decisions)+len(a.DecisionsIOS))
	for _, f := range o.Findings() {
		fmt.Fprintf(stdout, "  finding: %s\n", f)
	}
	if err != nil {
		fmt.Fprintf(stdout, "  digest: %s, recorded %s\n", got.Digest, a.Digest)
		return err
	}
	fmt.Fprintf(stdout, "  digest: %s == recorded (bit-identical)\n", got.Digest)
	return nil
}

// runDiffcheck drives the differential persona oracle and reports. A
// residual (unallowlisted) divergence exits nonzero; the allowlist hits
// are printed so a quiet run still shows the oracle exercised the
// deliberate deviations. With --explore N it explores the persona pairs
// instead (see runExplore).
func runDiffcheck(args []string, stdout io.Writer) error {
	fs := newFlags("diffcheck")
	seeds := fs.Int("seeds", 200, "number of seeded programs to run")
	jobs := jobsFlag(fs)
	corpus := fs.String("corpus", "", "directory to write diverging programs to")
	noMin := fs.Bool("no-minimize", false, "skip delta-debug minimization of divergences")
	suggest := fs.Bool("update-allowlist", false, "print suggested allowlist entries for residual divergences")
	rounds := fs.Int("explore", 0, "run N perturbed schedules per persona pair (DPOR-lite)")
	artifactDir := fs.String("artifact-dir", "", "directory for replay artifacts (default: OS temp dir)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *rounds > 0 {
		return runExplore(stdout, *rounds, *jobs, *artifactDir, diffcheck.Suite(*seeds))
	}

	fmt.Fprintf(stdout, "== diffcheck: %d seeded programs, Android vs iOS persona ==\n", *seeds)
	rep, err := diffcheck.Run(diffcheck.Options{Seeds: *seeds, Jobs: *jobs, Minimize: !*noMin, ArtifactDir: *artifactDir})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Text())
	if *corpus != "" && len(rep.Divergences) > 0 {
		if err := os.MkdirAll(*corpus, 0o755); err != nil {
			return err
		}
		for i, d := range rep.Divergences {
			body := fmt.Sprintf("# %s\n# sig: %s\n%s", d.Class, d.Sig, d.Program)
			if d.Minimized != "" {
				body += "# minimized\n" + d.Minimized
			}
			name := fmt.Sprintf("%s/div-%03d-seed-%x.txt", *corpus, i, d.Seed)
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "wrote %d diverging program(s) to %s\n", len(rep.Divergences), *corpus)
	}
	if *suggest && len(rep.Divergences) > 0 {
		fmt.Fprintln(stdout, "-- suggested allowlist entries (write the Why citation by hand) --")
		fmt.Fprint(stdout, rep.SuggestAllowlist())
	}
	if len(rep.Divergences) > 0 {
		return fmt.Errorf("diffcheck: %d unallowlisted divergence(s)", len(rep.Divergences))
	}
	return nil
}

// inGroup keeps the tests of one battery group.
func inGroup[T any](tests []T, group string, groupOf func(T) string) []T {
	var out []T
	for _, t := range tests {
		if groupOf(t) == group {
			out = append(out, t)
		}
	}
	return out
}

func lmbenchGroup(t lmbench.Test) string   { return t.Group }
func passmarkGroup(t passmark.Test) string { return t.Group }

// runFigure is the body fig5 and fig6 share: parse -group and -jobs,
// narrow the battery to one group if asked, run it on every
// configuration and write the rendered table.
func runFigure[T any](args []string, stdout io.Writer, name, groupHelp string, tests []T,
	groupOf func(T) string, runAll func(tests []T, jobs int) (interface{ Render() string }, error)) error {
	fs := newFlags(name)
	group := fs.String("group", "", groupHelp)
	jobs := jobsFlag(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *group != "" {
		if tests = inGroup(tests, *group, groupOf); len(tests) == 0 {
			return fmt.Errorf("unknown group %q", *group)
		}
	}
	rep, err := runAll(tests, *jobs)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, rep.Render())
	return err
}

// runFig5 regenerates Figure 5, the lmbench latencies.
func runFig5(args []string, stdout io.Writer) error {
	return runFigure(args, stdout, "fig5", "run only one Fig. 5 group (basic, syscall, proc, comm)", lmbench.AllTests(), lmbenchGroup,
		func(tests []lmbench.Test, jobs int) (interface{ Render() string }, error) {
			return lmbench.RunFigure5(tests, lmbench.Options{Jobs: jobs})
		})
}

// runFig6 regenerates Figure 6, the PassMark throughput.
func runFig6(args []string, stdout io.Writer) error {
	return runFigure(args, stdout, "fig6", "run only one Fig. 6 group (cpu, storage, memory, 2d, 3d)", passmark.AllTests(), passmarkGroup,
		func(tests []passmark.Test, jobs int) (interface{ Render() string }, error) {
			return passmark.RunFigure6(tests, passmark.Options{Jobs: jobs})
		})
}

// statsConfigs are the configurations whose syscall behaviour `cider
// stats` decomposes: the vanilla baseline plus both Cider personas
// (Fig. 5's 8.5% and 40% null-syscall columns).
func statsConfigs() []lmbench.Configuration {
	var out []lmbench.Configuration
	for _, conf := range lmbench.Configurations() {
		if conf.Name == lmbench.ConfigIPad {
			continue // real hardware in the paper; no trace hooks to compare
		}
		out = append(out, conf)
	}
	return out
}

func runStats(args []string, stdout io.Writer) error {
	fs := newFlags("stats")
	asJSON := fs.Bool("json", false, "emit one JSON document instead of text")
	jobs := jobsFlag(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	type run struct {
		conf    lmbench.Configuration
		session *trace.Session
		null    time.Duration // null-syscall latency for the decomposition
	}
	confs := statsConfigs()
	tests := inGroup(lmbench.AllTests(), "syscall", lmbenchGroup)
	runs := make([]run, len(confs))

	// One cell per configuration: each boots its own System with its own
	// trace session, written only to runs[i], so the parallel run's
	// histograms are bit-identical to the sequential ones.
	if _, err := runner.Map(len(confs), *jobs, func(i int) (struct{}, error) {
		conf := confs[i]
		var session *trace.Session
		results, err := lmbench.RunWith(conf, tests, func(sys *core.System) {
			session = sys.EnableTrace()
			session.Label = conf.Name
		})
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", conf.Name, err)
		}
		r := run{conf: conf, session: session}
		for _, res := range results {
			if res.Test == "null syscall" && !res.Failed {
				r.null = res.Latency
			}
		}
		runs[i] = r
		return struct{}{}, nil
	}); err != nil {
		return err
	}

	base := runs[0].null

	// The resource-governance counters: one bounded run of the
	// mem-pressure-storm and fd-exhaustion schedules, merged. These are
	// the `cider stats` jetsam numbers — how many kills per band, how
	// many pressure notifications, how many rlimit rejections — produced
	// by the same machinery the soak gate verifies.
	governance, err := soak.GovernanceCounters(*jobs)
	if err != nil {
		return err
	}
	governanceKeys := func() []string {
		keys := make([]string, 0, len(governance))
		for k := range governance {
			switch {
			case strings.HasPrefix(k, "jetsam."),
				strings.HasPrefix(k, "pressure."),
				strings.HasPrefix(k, "rlimit."),
				k == trace.CounterLaunchdJetsam,
				k == trace.CounterLaunchdRespawns:
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		return keys
	}

	if *asJSON {
		// One machine-scrapable document: per-config trace summaries plus
		// the null-syscall decomposition, so CI and the bench harness can
		// read counters without parsing text or stitching array elements.
		type statConfig struct {
			Config        string `json:"config"`
			NullSyscallNS int64  `json:"null_syscall_ns"`
			// NullOverheadPct is the paper's Fig. 5 decomposition: percent
			// added to the null syscall vs the baseline config (omitted
			// when either side failed).
			NullOverheadPct *float64       `json:"null_overhead_pct,omitempty"`
			Trace           *trace.Summary `json:"trace"`
		}
		doc := struct {
			Baseline string       `json:"baseline"`
			Configs  []statConfig `json:"configs"`
			// Governance carries the jetsam/pressure/rlimit counters from
			// one bounded resource-governance soak run.
			Governance map[string]uint64 `json:"governance"`
		}{Baseline: runs[0].conf.Name}
		doc.Governance = map[string]uint64{}
		for _, k := range governanceKeys() {
			doc.Governance[k] = governance[k]
		}
		for _, r := range runs {
			sc := statConfig{
				Config:        r.conf.Name,
				NullSyscallNS: r.null.Nanoseconds(),
				Trace:         r.session.Summarize(false),
			}
			if base > 0 && r.null > 0 {
				pct := 100 * (float64(r.null)/float64(base) - 1)
				sc.NullOverheadPct = &pct
			}
			doc.Configs = append(doc.Configs, sc)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	for _, r := range runs {
		fmt.Fprintf(stdout, "==== %s ====\n", r.conf.Name)
		fmt.Fprint(stdout, r.session.Text())
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "==== resource governance (jetsam / pressure / rlimits) ====")
	for _, k := range governanceKeys() {
		fmt.Fprintf(stdout, "  %-32s %d\n", k, governance[k])
	}
	fmt.Fprintln(stdout)

	// The Fig. 5 decomposition: null-syscall overhead relative to vanilla
	// Android — the paper reports ~8.5% for the Android persona (one extra
	// persona check) and ~40% for the iOS persona (persona check + XNU
	// syscall translation + errno conversion).
	fmt.Fprintln(stdout, "==== null-syscall decomposition (Fig. 5) ====")
	for _, r := range runs {
		if r.null == 0 {
			fmt.Fprintf(stdout, "  %-14s failed\n", r.conf.Name)
			continue
		}
		if base == 0 {
			base = r.null
		}
		overhead := 100 * (float64(r.null)/float64(base) - 1)
		fmt.Fprintf(stdout, "  %-14s %8v  (+%.1f%% vs %s)\n",
			r.conf.Name, r.null, overhead, runs[0].conf.Name)
	}
	return nil
}
