// Package soak drives the paper's Fig. 5/6 batteries under a matrix of
// deterministic fault schedules and asserts the three error-path
// invariants this repo's kernel promises:
//
//   - determinism — a (seed, plan) pair produces bit-identical results
//     and traces at any host parallelism (jobs=1 vs jobs=N),
//   - no leaks — kernel.LeakCheck passes after every battery, faulted
//     or clean: failed syscalls, killed processes and dead ports must
//     release every descriptor, mapping and IPC right,
//   - no deadlocks — injected EINTR storms, ENOMEM, EIO and Mach queue
//     pressure may fail benchmark cells, but must never wedge the sim.
//
// Benchmark cells failing under injection is expected and acceptable;
// the soak criteria are about how the kernel fails, not whether the
// benchmark survives.
package soak

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/lmbench"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/services"
	"repro/internal/trace"
)

// Schedule is one named fault plan in the soak matrix.
type Schedule struct {
	// Name labels the schedule in reports.
	Name string
	// Desc says what failure class the schedule exercises.
	Desc string
	// Plan is the seeded fault plan armed on every cell's System.
	Plan fault.Plan
	// Services boots the launchd service tree in every cell that has an
	// iOS layer and runs a Mach service client app alongside the
	// benchmark, so crash schedules have daemons to kill, a supervisor
	// to respawn them, and stranded clients to recover.
	Services bool
	// Pressure boots the memory-balloon workloads alongside the benchmark:
	// band-assigned processes that inflate their footprint round by round,
	// register pressure listeners on both personas, and shed cache chunks
	// when notified — the OpMemPressure rules storm them by path.
	Pressure bool
	// FDHog boots the descriptor-exhaustion apps: one per persona, each
	// lowering its own RLIMIT_NOFILE and driving the fd table into EMFILE
	// and back out, leak-free.
	FDHog bool
}

// Schedules is the soak matrix: one clean control plus one schedule per
// fault class the kernel must survive.
func Schedules() []Schedule {
	return []Schedule{
		{
			Name: "clean",
			Desc: "no faults — the leak-check and determinism control",
			Plan: fault.Plan{Name: "clean", Seed: 1},
		},
		{
			Name: "eintr-storm",
			Desc: "signal-interrupt pressure on every blocking wait",
			Plan: fault.Plan{Name: "eintr-storm", Seed: 0x5eed0001, Rules: []fault.Rule{
				{Op: fault.OpPark, Match: "waitq:pipe", Every: 3},
				{Op: fault.OpPark, Match: "waitq:unix-*", Every: 4},
				{Op: fault.OpPark, Match: "select", Every: 3},
				{Op: fault.OpPark, Match: "sleep", Every: 7},
				{Op: fault.OpPark, Match: "waitq:wait4", Every: 5},
			}},
		},
		{
			Name: "errno-storm",
			Desc: "transient errno injection at syscall dispatch",
			// Injected errnos are CANONICAL (Linux) numbers: the dispatch
			// path translates to BSD numbering for iOS-persona TLS. An
			// earlier version injected 35 here "as EAGAIN" — that is BSD's
			// number; canonically 35 is EDEADLK, so the same rule surfaced
			// as would-block on one persona and deadlock on the other (the
			// differential oracle's errno-mapping finding).
			Plan: fault.Plan{Name: "errno-storm", Seed: 0x5eed0002, Rules: []fault.Rule{
				{Op: fault.OpSyscall, Match: "*/read", Errno: 4 /* EINTR */, Every: 11},
				{Op: fault.OpSyscall, Match: "*/write", Errno: 11 /* EAGAIN (canonical) */, Every: 13},
				{Op: fault.OpSyscall, Match: "*/dup", Errno: 24 /* EMFILE */, Every: 5},
				{Op: fault.OpSyscall, Match: "*/open", Errno: 4 /* EINTR */, Every: 9},
			}},
		},
		{
			Name: "enomem",
			Desc: "allocation failure at arbitrary mapping sites",
			Plan: fault.Plan{Name: "enomem", Seed: 0x5eed0003, Rules: []fault.Rule{
				{Op: fault.OpMemMap, Errno: 12 /* ENOMEM */, Every: 97},
			}},
		},
		{
			Name: "vfs-eio",
			Desc: "storage I/O errors, full disk, and latency spikes",
			Plan: fault.Plan{Name: "vfs-eio", Seed: 0x5eed0004, Rules: []fault.Rule{
				{Op: fault.OpVFS, Match: "lookup:*", Errno: 5 /* EIO */, Every: 41},
				{Op: fault.OpVFS, Match: "create:*", Errno: 28 /* ENOSPC */, Every: 17},
				{Op: fault.OpVFS, Match: "lookup:*", Delay: 3 * time.Millisecond, Every: 29},
			}},
		},
		{
			Name: "mach-pressure",
			Desc: "Mach queue overflow and interrupted mach_msg",
			Plan: fault.Plan{Name: "mach-pressure", Seed: 0x5eed0005, Rules: []fault.Rule{
				{Op: fault.OpMachSend, QLimit: 1, Every: 3},
				{Op: fault.OpMachSend, Errno: 1, Every: 19},
				{Op: fault.OpMachRecv, Errno: 1, Every: 17},
				{Op: fault.OpPark, Match: "waitq:mach_snd", Every: 5},
				{Op: fault.OpPark, Match: "waitq:mach_rcv", Every: 7},
			}},
		},
		{
			Name:     "daemon-crash",
			Desc:     "fatal faults inside the service daemons; launchd KeepAlive must respawn them and clients must re-resolve",
			Services: true,
			Plan: fault.Plan{Name: "daemon-crash", Seed: 0x5eed0006, Rules: []fault.Rule{
				// Nth hit counters are keyed by executable path and so
				// accumulate across respawned incarnations: two rules per
				// daemon kill both the original and its replacement. The
				// daemons' startup sequence alone is 4-5 syscalls, and the
				// in-cell service client drives tens more, so every rule is
				// reachable on the quick battery.
				{Op: fault.OpCrash, Match: services.NotifydPath, Nth: 4, Errno: 11 /* SIGSEGV */},
				{Op: fault.OpCrash, Match: services.NotifydPath, Nth: 16, Errno: 11},
				{Op: fault.OpCrash, Match: services.ConfigdPath, Nth: 6, Errno: 6 /* SIGABRT */},
				{Op: fault.OpCrash, Match: services.ConfigdPath, Nth: 20, Errno: 7 /* SIGBUS */},
				{Op: fault.OpCrash, Match: services.SyslogdPath, Nth: 8, Errno: 4 /* SIGILL */},
				// crashreporterd itself crashes while on duty; its respawn
				// must re-bind the host exception port.
				{Op: fault.OpCrash, Match: services.CrashReporterPath, Nth: 5, Errno: 11},
			}},
		},
		{
			Name:     "app-crash-storm",
			Desc:     "fatal faults in the apps themselves: crash reports written, kernels leak-free, daemons unharmed",
			Services: true,
			Plan: fault.Plan{Name: "app-crash-storm", Seed: 0x5eed0007, Rules: []fault.Rule{
				// The service client dies mid-conversation (iOS persona:
				// EXC_BAD_ACCESS through the exception path, then a crash
				// report); the hello payloads the proc tests exec die with
				// mixed dispositions on both personas.
				{Op: fault.OpCrash, Match: svcClientPath, Nth: 25, Errno: 11 /* SIGSEGV */},
				{Op: fault.OpCrash, Match: "/bin/hello-*", Nth: 2, Errno: 6 /* SIGABRT */, Count: 6},
			}},
		},
		{
			Name: "mem-pressure-storm",
			Desc: "jetsam storms: balloons inflate until the memorystatus ladder notifies, sheds, and kills in band order; launchd respawns the reaped daemon",
			// Daemons must be up so a critical episode has a daemon-band
			// victim for launchd's jetsam-aware KeepAlive to respawn.
			Services: true,
			Pressure: true,
			Plan: fault.Plan{Name: "mem-pressure-storm", Seed: 0x5eed0008, Rules: []fault.Rule{
				// Episodes are keyed per balloon path, so each balloon's warn
				// fires on its own 3rd inflation and its critical on its 6th;
				// the After gate skips exec-time materializations, which
				// happen before the balloons have set their jetsam bands.
				// The first critical reaps balloon-idle (the only idle-band
				// task); the second finds the idle band empty and takes the
				// daemon band's worst — which launchd respawns without
				// charging the crash-loop budget.
				{Op: fault.OpMemPressure, Match: "/bin/balloon-*", Nth: 3, After: balloonStart},
				{Op: fault.OpMemPressure, Match: "/bin/balloon-*", Nth: 6, Errno: 2 /* critical */, After: balloonStart},
				// A page-reclaim latency spike on a late inflation: only the
				// surviving balloon ever reaches its 8th round.
				{Op: fault.OpMemPressure, Match: "/bin/balloon-*", Nth: 8, Delay: 500 * time.Microsecond, After: balloonStart},
			}},
		},
		{
			Name:  "fd-exhaustion",
			Desc:  "descriptor-table exhaustion against a lowered RLIMIT_NOFILE on both personas: every rejection counted, every descriptor released",
			FDHog: true,
			// No injected faults: the storm is the workload itself. The
			// schedule still earns its soak slot via the determinism,
			// leak-freedom and rlimit-accounting audits.
			Plan: fault.Plan{Name: "fd-exhaustion", Seed: 0x5eed0009},
		},
	}
}

// ScheduleByName finds a schedule in the matrix.
func ScheduleByName(name string) (Schedule, bool) {
	return byName(Schedules(), name, func(s Schedule) string { return s.Name })
}

// QuickTests is the reduced battery the verify smoke runs: the syscall
// and comm groups exercise dispatch, pipes, signals and the fd table,
// and the proc group exercises fork/exec — the in-simulation mapping
// sites the enomem schedule needs — at a fraction of the full battery's
// cost (the basic group is pure arithmetic and injects nothing).
func QuickTests() []lmbench.Test {
	var out []lmbench.Test
	for _, t := range lmbench.AllTests() {
		switch t.Group {
		case "syscall", "comm", "proc":
			out = append(out, t)
		}
	}
	return out
}

// Options configures a soak run.
type Options struct {
	// Jobs is the host parallelism handed to the battery engines;
	// <= 0 means GOMAXPROCS, 1 is the sequential reference execution.
	Jobs int
	// Full also runs the Fig. 6 (PassMark) battery per schedule.
	Full bool
	// Tests selects the lmbench subset; nil means the full battery.
	Tests []lmbench.Test
	// NoRecord disables per-cell scheduler-decision recording. Recording
	// is on by default so every failing cell arrives with a one-command
	// replay artifact; the canonical run's choice log is empty (the
	// Recorder takes every canonical choice), so recording cannot change
	// results — only failure diagnostics.
	NoRecord bool
	// ArtifactDir is where failing cells' replay artifacts are written;
	// "" means the host temp dir.
	ArtifactDir string
}

// Result is one schedule's soak outcome.
type Result struct {
	// Schedule names the plan that ran.
	Schedule string
	// Digest fingerprints everything deterministic about the run: cell
	// results, trace event streams, counters, and injection counts.
	// Equal digests across jobs values is the determinism criterion.
	Digest uint64
	// Cells is the number of simulated systems booted.
	Cells int
	// FailedCells counts benchmark cells that did not complete —
	// expected under injection, and part of the digest.
	FailedCells int
	// Injected totals fault-rule fires across all cells.
	Injected uint64
	// LatencyDigest fingerprints only the Fig. 5 latency table (test
	// names, per-configuration latencies, and failure marks). Crash
	// schedules that kill daemons between cells must leave this equal to
	// the clean schedule's: supervision may not perturb benchmark
	// virtual time.
	LatencyDigest uint64
	// Counters aggregates every cell's trace counters — the respawn,
	// throttle, exception and crash-report totals ride here into reports
	// and `cider stats`-style tooling.
	Counters map[string]uint64
	// Findings are hard invariant violations: deadlocks and leaks.
	// Empty findings means the schedule passed. When recording is on
	// (the default), each failing cell's findings are followed by a
	// "reproduce with: cider replay <path>" line naming its artifact.
	Findings []string
	// Artifacts lists the replay artifact files written for failing
	// cells, in cell order.
	Artifacts []string
}

// Err folds findings into an error (nil when the schedule passed).
func (r *Result) Err() error {
	if len(r.Findings) == 0 {
		return nil
	}
	return fmt.Errorf("soak: %s: %d finding(s):\n  %s", r.Schedule, len(r.Findings), strings.Join(r.Findings, "\n  "))
}

// RunSchedule runs one schedule's battery set and audits the invariants.
//
// Every cell — each (configuration, test) lmbench pair, each passmark
// configuration, and the Mach IPC cell — runs as an isolated System,
// sharded across opts.Jobs host workers and merged in canonical cell
// order, so the schedule digest is a fold of per-cell digests and any
// single cell can be re-executed (or replayed from an artifact)
// bit-identically on its own. Unless opts.NoRecord is set, each cell
// records its scheduler decisions, and any cell with findings emits a
// replay artifact whose path is appended to the findings.
func RunSchedule(s Schedule, opts Options) *Result {
	refs := CellRefs(opts.Tests, opts.Full)
	outcomes, _ := runner.Map(len(refs), opts.Jobs, func(i int) (*cellOutcome, error) {
		c := cell{s: s, ref: refs[i]}
		if opts.NoRecord {
			return c.run(nil), nil
		}
		o, a := replay.Record(c, 0)
		co := o.(*cellOutcome)
		co.art = a
		return co, nil
	})
	r := &Result{Schedule: s.Name}
	d := replay.NewDigest()
	d.Str(s.Name)
	d.U64(s.Plan.Seed)
	ld := replay.NewDigest()
	for i, o := range outcomes {
		d.U64(uint64(i))
		d.U64(o.digest)
		if o.latPresent {
			ld.U64(o.latPart)
		}
		r.Cells++
		r.FailedCells += o.failed
		r.Injected += o.injected
		if o.counters != nil {
			if r.Counters == nil {
				r.Counters = map[string]uint64{}
			}
			for k, v := range o.counters {
				r.Counters[k] += v
			}
		}
		for _, f := range o.findings {
			r.Findings = append(r.Findings, f.Detail)
		}
		if len(o.findings) > 0 && o.art != nil {
			line, path := replay.Emit(o.art, opts.ArtifactDir)
			r.Findings = append(r.Findings, line)
			if path != "" {
				r.Artifacts = append(r.Artifacts, path)
			}
		}
	}
	// Schedule-level effectiveness audits: a pressure schedule that reaps
	// nobody, or an fd schedule that never hits its lowered limit, is a
	// storm that silently stopped storming — treat it as a finding so the
	// verify smoke catches regressions in the governance machinery itself.
	if s.Pressure && r.Counters[trace.CounterJetsamKills] == 0 {
		r.Findings = append(r.Findings, fmt.Sprintf(
			"schedule %s: pressure storm reaped nothing (no %s across %d cells)",
			s.Name, trace.CounterJetsamKills, r.Cells))
	}
	if s.FDHog && r.Counters[trace.CounterRlimitHits] == 0 {
		r.Findings = append(r.Findings, fmt.Sprintf(
			"schedule %s: descriptor hogs never hit RLIMIT_NOFILE (no %s across %d cells)",
			s.Name, trace.CounterRlimitHits, r.Cells))
	}
	r.Digest = d.Sum()
	r.LatencyDigest = ld.Sum()
	return r
}

// Suite is the schedule's cell set for replay.Explore; its fingerprint
// opens with the schedule name and fault-plan seed.
func Suite(s Schedule, opts Options) replay.Suite {
	refs := CellRefs(opts.Tests, opts.Full)
	cells := make([]replay.Cell, len(refs))
	for i, ref := range refs {
		cells[i] = cell{s: s, ref: ref}
	}
	return replay.Suite{Name: s.Name, Seed: s.Plan.Seed, Cells: cells}
}

// digestSession folds a trace session's event stream and counters into
// the digest. The event ring is bounded, so this sees the tail of long
// runs — still a deterministic function of the simulation.
func digestSession(d *replay.Digest, tr *trace.Session) {
	if tr == nil {
		d.Str("no-trace")
		return
	}
	tr.Walk(func(ev *trace.Event) {
		d.U64(ev.Seq)
		d.U64(uint64(ev.At))
		d.U64(uint64(ev.Kind))
		d.Str(ev.Proc)
		d.U64(uint64(ev.ProcID))
		d.U64(uint64(ev.Sched))
		d.U64(uint64(ev.Persona))
		d.U64(uint64(ev.Sysno))
		d.Str(ev.Name)
		d.U64(uint64(int64(ev.Errno)))
		d.Str(ev.Detail)
	})
	for _, c := range tr.Counters() {
		d.Str(c.Name)
		d.U64(c.Value)
	}
}

// GovernanceCounters runs the two resource-governance schedules
// (mem-pressure-storm and fd-exhaustion) over a minimal one-test battery
// and returns their merged counters — the `cider stats` jetsam/pressure/
// rlimit section. An error means a governance invariant failed, which
// stats surfaces rather than printing misleading numbers.
func GovernanceCounters(jobs int) (map[string]uint64, error) {
	var tests []lmbench.Test
	for _, t := range lmbench.AllTests() {
		if t.Name == "null syscall" {
			tests = append(tests, t)
		}
	}
	merged := map[string]uint64{}
	for _, name := range []string{"mem-pressure-storm", "fd-exhaustion"} {
		s, ok := ScheduleByName(name)
		if !ok {
			return nil, fmt.Errorf("soak: governance schedule %q missing", name)
		}
		r := RunSchedule(s, Options{Jobs: jobs, Tests: tests, NoRecord: true})
		if err := r.Err(); err != nil {
			return nil, err
		}
		for k, v := range r.Counters {
			merged[k] += v
		}
	}
	return merged, nil
}

// VerifyDeterminism runs one schedule sequentially and at jobs host
// workers and compares digests — the jobs=1 vs jobs=N bit-identity
// criterion.
func VerifyDeterminism(s Schedule, jobs int, opts Options) error {
	seq := opts
	seq.Jobs = 1
	par := opts
	par.Jobs = jobs
	a := RunSchedule(s, seq)
	b := RunSchedule(s, par)
	if a.Digest != b.Digest {
		return fmt.Errorf("soak: %s: digest diverged: jobs=1 %016x vs jobs=%d %016x", s.Name, a.Digest, jobs, b.Digest)
	}
	return nil
}
