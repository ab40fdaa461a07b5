package soak

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/runner"
)

// TestCellsLeaveNoGoroutines runs every daemon-crash quick cell, plus the
// PassMark cells, and checks that no simulated process's goroutine
// outlives its cell: each runner must close its System once the audit is
// done, or the parked service daemons keep the whole System alive.
func TestCellsLeaveNoGoroutines(t *testing.T) {
	s, ok := ScheduleByName("daemon-crash")
	if !ok {
		t.Fatal("daemon-crash schedule missing")
	}
	base := runtime.NumGoroutine()
	for _, ref := range CellRefs(QuickTests(), true) {
		if _, rep := RecordCell(s, ref, nil, 0); len(rep.Findings) > 0 {
			t.Fatalf("cell %s: %v", ref, rep.Findings)
		}
	}
	if err := runner.AwaitGoroutines(base, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
