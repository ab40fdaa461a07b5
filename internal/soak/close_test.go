package soak

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/runner"
)

// TestCellsLeaveNoGoroutines checks that no simulated process's
// goroutine outlives its cell: each runner must close its System once
// the audit is done, or the parked service daemons keep the whole
// System alive. sharedPass checks this after every shared quick-battery
// pass, so the test builds the pass of every schedule, then runs
// daemon-crash's PassMark cells, which no shared pass covers.
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
		if _, rep := RecordCell(s, ref, nil, 0); len(rep.Findings) > 0 {
			t.Fatalf("cell %s: %v", ref, rep.Findings)
		}
	}
	if err := runner.AwaitGoroutines(base, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
