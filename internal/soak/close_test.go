package soak

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/figure"
	"repro/internal/runner"
	"repro/internal/trace"
)

// TestCellsLeaveNoGoroutines checks that no simulated process's
// goroutine outlives its cell: each runner must close its System once
// the audit is done, or the parked service daemons keep the whole
// System alive. sharedPass checks this after every shared quick-battery
// pass, so the test builds the pass of every schedule, then runs
// daemon-crash's PassMark cells, which no shared pass covers. Those
// cells boot the schedule's services like the Fig. 5 cells, so daemons
// crash and launchd respawns them while PassMark runs.
func TestCellsLeaveNoGoroutines(t *testing.T) {
	for _, s := range Schedules() {
		sharedPass(t, s.Name, 1)
	}
	s, ok := ScheduleByName("daemon-crash")
	if !ok {
		t.Fatal("daemon-crash schedule missing")
	}
	base := runtime.NumGoroutine()
	for _, ref := range CellRefs(QuickTests(), true) {
		if ref.Bench != "passmark" {
			continue
		}
		// Vanilla Android has no launchd, so nothing to respawn.
		o := cell{s: s, ref: ref}.run(nil)
		if respawns := o.counters[trace.CounterLaunchdRespawns]; len(o.findings) > 0 || respawns == 0 && ref.Config != figure.ConfigAndroid {
			t.Fatalf("cell %s: %d respawns, findings %v; want respawns and no finding", ref, respawns, o.findings)
		}
	}
	if err := runner.AwaitGoroutines(base, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
