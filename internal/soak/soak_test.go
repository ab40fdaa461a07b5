package soak

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/trace"
)

// passKey names one shared soak pass: a schedule at a jobs level.
type passKey struct {
	schedule string
	jobs     int
}

// sharedRun is one shared pass and its goroutine check.
type sharedRun struct {
	r    *Result
	leak error
}

// passes holds the recorded quick-battery runs every test in the
// binary reads: each (schedule, jobs) pass runs once, on first use.
var passes = struct {
	sync.Mutex
	m map[passKey]sharedRun
}{m: map[passKey]sharedRun{}}

// sharedPass returns the recorded quick-battery run of the named
// schedule at jobs host workers. Building a pass also checks that no
// simulated goroutine outlives it, the way `cider soak` does after
// its run: every cell must close its System once the audit is done.
// A pass that left goroutines behind fails every test that reads it.
func sharedPass(t *testing.T, name string, jobs int) *Result {
	t.Helper()
	passes.Lock()
	defer passes.Unlock()
	k := passKey{name, jobs}
	p, ok := passes.m[k]
	if !ok {
		s, found := ScheduleByName(name)
		if !found {
			t.Fatalf("schedule %q missing from matrix", name)
		}
		base := runtime.NumGoroutine()
		p.r = RunSchedule(s, Options{Jobs: jobs, Tests: QuickTests()})
		p.leak = runner.AwaitGoroutines(base, 5*time.Second)
		passes.m[k] = p
	}
	if p.leak != nil {
		t.Fatalf("%s at jobs=%d: %v", name, jobs, p.leak)
	}
	return p.r
}

// verifyDeterministic compares the shared jobs=1 and jobs=4 passes of
// each named schedule.
func verifyDeterministic(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := VerifyDeterminism(sharedPass(t, name, 1), sharedPass(t, name, 4)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCleanScheduleLeakFree is the control: the quick battery with no
// faults armed must finish with zero findings — every cell's kernel
// passes LeakCheck after a clean run.
func TestCleanScheduleLeakFree(t *testing.T) {
	r := sharedPass(t, "clean", 1)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Injected != 0 {
		t.Fatalf("clean schedule injected %d faults", r.Injected)
	}
}

// TestFaultSchedulesSurvivable runs every schedule in the matrix on the
// quick battery: faults must actually fire (except the control) and no
// schedule may deadlock or leak.
func TestFaultSchedulesSurvivable(t *testing.T) {
	for _, s := range Schedules() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			r := sharedPass(t, s.Name, 1)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			// Schedules with rules must fire them; rule-free schedules
			// (clean, fd-exhaustion — whose storm is the workload itself)
			// must not inject anything.
			if len(s.Plan.Rules) > 0 && r.Injected == 0 {
				t.Fatalf("schedule %q never fired a fault", s.Name)
			}
			if len(s.Plan.Rules) == 0 && r.Injected != 0 {
				t.Fatalf("rule-free schedule %q injected %d faults", s.Name, r.Injected)
			}
			t.Logf("%s: digest=%016x cells=%d failed=%d injected=%d",
				r.Schedule, r.Digest, r.Cells, r.FailedCells, r.Injected)
		})
	}
}

// TestDeterminismAcrossJobs is the acceptance criterion: one schedule,
// identical digests at jobs=1 and jobs=4. The digest covers cell
// results, every cell's trace event stream, counters, and injection
// counts, so host scheduling leaking into the simulation shows up here.
func TestDeterminismAcrossJobs(t *testing.T) {
	verifyDeterministic(t, "eintr-storm", "mach-pressure")
}

// TestCrashSchedulesDeterministic is the crash-storm half of the
// determinism criterion: killing daemons and apps mid-battery — with
// exception delivery, crash reports, SIGCHLD reaping, backoff sleeps and
// respawns in the mix — must still produce bit-identical digests at
// jobs=1 and jobs=4.
func TestCrashSchedulesDeterministic(t *testing.T) {
	verifyDeterministic(t, "daemon-crash", "app-crash-storm")
}

// TestDaemonCrashKeepsFig5Latencies is the paper-fidelity criterion:
// service daemons crashing and respawning between benchmark operations
// must not perturb the Fig. 5 latency table at all — the latency digest
// under daemon-crash equals the clean schedule's, even though faults
// demonstrably fired, services were respawned, and crash reports were
// written.
func TestDaemonCrashKeepsFig5Latencies(t *testing.T) {
	a := sharedPass(t, "clean", 1)
	b := sharedPass(t, "daemon-crash", 1)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if b.Injected == 0 {
		t.Fatal("daemon-crash never fired a fault")
	}
	if a.LatencyDigest != b.LatencyDigest {
		t.Fatalf("daemon crashes perturbed Fig. 5 latencies: clean %016x vs daemon-crash %016x",
			a.LatencyDigest, b.LatencyDigest)
	}
	for _, c := range []string{
		trace.CounterLaunchdCrashes,
		trace.CounterLaunchdRespawns,
		trace.CounterExcRaised,
		trace.CounterCrashReports,
	} {
		if b.Counters[c] == 0 {
			t.Errorf("daemon-crash recorded no %s", c)
		}
	}
	t.Logf("daemon-crash: crashes=%d respawns=%d throttled=%d reports=%d",
		b.Counters[trace.CounterLaunchdCrashes], b.Counters[trace.CounterLaunchdRespawns],
		b.Counters[trace.CounterLaunchdThrottled], b.Counters[trace.CounterCrashReports])
}

// TestGovernanceSchedulesDeterministic is the resource-governance half
// of the determinism criterion: jetsam storms (notify, shed, kill,
// respawn) and descriptor exhaustion must still produce bit-identical
// digests at jobs=1 and jobs=4.
func TestGovernanceSchedulesDeterministic(t *testing.T) {
	verifyDeterministic(t, "mem-pressure-storm", "fd-exhaustion")
}

// TestPressureStormSparesForeground is the governance counterpart of the
// daemon-crash fidelity test: a memory-pressure storm that demonstrably
// notifies, kills, and triggers jetsam respawns must (a) never reap a
// foreground- or background-band task — kills land idle-first, exactly
// jetsam's point — (b) have launchd account every reaped daemon as a
// jetsam rather than a crash, and (c) leave the Fig. 5 latency digest
// bit-identical to the clean schedule's.
func TestPressureStormSparesForeground(t *testing.T) {
	a := sharedPass(t, "clean", 1)
	b := sharedPass(t, "mem-pressure-storm", 1)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if b.Injected == 0 {
		t.Fatal("mem-pressure-storm never fired a fault")
	}
	if a.LatencyDigest != b.LatencyDigest {
		t.Fatalf("pressure storm perturbed Fig. 5 latencies: clean %016x vs storm %016x",
			a.LatencyDigest, b.LatencyDigest)
	}
	kills := b.Counters[trace.CounterJetsamKills]
	if kills == 0 {
		t.Fatal("pressure storm reaped nobody")
	}
	if b.Counters[trace.CounterPressureNotify] == 0 {
		t.Error("pressure storm delivered no notifications")
	}
	for _, band := range []string{"foreground", "background"} {
		if n := b.Counters[trace.CounterJetsamKills+"."+band]; n != 0 {
			t.Errorf("jetsam reaped %d %s-band task(s); kills must land idle-first", n, band)
		}
	}
	if got := b.Counters[trace.CounterJetsamKills+".idle"] +
		b.Counters[trace.CounterJetsamKills+".daemon"]; got != kills {
		t.Errorf("per-band kill counts (%d) do not account for all %d kills", got, kills)
	}
	if b.Counters[trace.CounterLaunchdJetsam] == 0 {
		t.Error("launchd accounted no reaped daemon as a jetsam")
	}
	if b.Counters[trace.CounterLaunchdThrottled] != 0 {
		t.Error("jetsam respawns charged the crash-loop throttle")
	}
	t.Logf("mem-pressure-storm: kills=%d (idle=%d daemon=%d) notify=%d launchd.jetsam=%d",
		kills, b.Counters[trace.CounterJetsamKills+".idle"],
		b.Counters[trace.CounterJetsamKills+".daemon"],
		b.Counters[trace.CounterPressureNotify], b.Counters[trace.CounterLaunchdJetsam])
}

// TestRepeatedRunsBitIdentical re-runs one faulted schedule at the same
// jobs level and requires the same digest — no host randomness anywhere
// in the injection or simulation path.
func TestRepeatedRunsBitIdentical(t *testing.T) {
	s, _ := ScheduleByName("errno-storm")
	a := RunSchedule(s, Options{Jobs: 2, Tests: QuickTests()})
	b := RunSchedule(s, Options{Jobs: 2, Tests: QuickTests()})
	if a.Digest != b.Digest {
		t.Fatalf("same schedule, same jobs, different digests: %016x vs %016x", a.Digest, b.Digest)
	}
}
