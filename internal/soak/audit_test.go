package soak

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/replay"
	"repro/internal/trace"
)

// auditPath is the one process each audit System runs: it maps and
// commits 64 KB, so its footprint grows once inside the simulation.
const auditPath = "/bin/audit-app"

// bootAudited boots a traced Cider System with plan armed, runs
// auditPath to completion, and returns the System and the app's task.
// No service or balloon runs beside the app.
func bootAudited(t *testing.T, plan fault.Plan) (*core.System, *kernel.Task) {
	t.Helper()
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTrace()
	sys.EnableFaults(plan)
	if err := sys.InstallIOSBinary(auditPath, "soak-audit-app", nil, func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		r, err := th.Task().Mem().Map(0, 64<<10, mem.ProtRead|mem.ProtWrite, "[audit]", false)
		if err != nil {
			t.Errorf("map: %v", err)
			return 1
		}
		r.Backing().Commit()
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	tk, err := sys.Start(auditPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys, tk
}

// TestAuditFindings drives auditSystem on hand-built Systems to each
// finding it raises after a cell's run — lost supervision, a leak, a
// foreground jetsam kill — and checks a clean System, and launchd
// counters on the supervision boundary, raise none.
func TestAuditFindings(t *testing.T) {
	ref := replay.CellRef{Bench: "lmbench", Config: "cider-ios", Test: "audit"}
	critical := fault.Plan{Name: "audit-critical", Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpMemPressure, Match: auditPath, Nth: 1, Errno: 2 /* critical */},
	}}
	for _, tc := range []struct {
		name     string
		plan     fault.Plan
		pressure bool
		// after changes the System once its run is over and returns the
		// finding the audit must raise, or "" for none.
		after func(sys *core.System, app *kernel.Task) (replay.FindingKind, string)
	}{
		{name: "clean", after: func(*core.System, *kernel.Task) (replay.FindingKind, string) { return 0, "" }},
		{name: "supervision boundary", after: func(sys *core.System, _ *kernel.Task) (replay.FindingKind, string) {
			// One crash may be reaped but not yet respawned when the run ends.
			sys.Trace.Count(trace.CounterLaunchdCrashes, 4)
			sys.Trace.Count(trace.CounterLaunchdRespawns, 2)
			sys.Trace.Count(trace.CounterLaunchdThrottled, 1)
			return 0, ""
		}},
		{name: "supervision", after: func(sys *core.System, _ *kernel.Task) (replay.FindingKind, string) {
			sys.Trace.Count(trace.CounterLaunchdCrashes, 5)
			sys.Trace.Count(trace.CounterLaunchdRespawns, 2)
			sys.Trace.Count(trace.CounterLaunchdThrottled, 1)
			return replay.Supervision, fmt.Sprintf("cell %s: supervision lost services: 5 crashes vs 2 respawns + 1 throttled", ref)
		}},
		{name: "leak", after: func(sys *core.System, app *kernel.Task) (replay.FindingKind, string) {
			// A port space for the exited app, created after its exit
			// teardown ran, is a space that teardown never saw.
			sys.IPC.SpaceFor(app)
			return replay.Leak, fmt.Sprintf("cell %s: kernel: leak check failed:\n  mach_ipc: space for exited pid %d leaked (0 names)", ref, app.PID())
		}},
		{name: "foreground", plan: critical, pressure: true, after: func(*core.System, *kernel.Task) (replay.FindingKind, string) {
			// The app is the only task in any band, so the critical
			// episode its first footprint growth fires must kill it.
			return replay.Foreground, fmt.Sprintf("cell %s: foreground-survival violated: 1 foreground kill(s) of 1 total", ref)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, app := bootAudited(t, tc.plan)
			defer sys.Close()
			kind, detail := tc.after(sys, app)
			o := &cellOutcome{ref: ref}
			o.auditSystem(replay.NewDigest(), Schedule{Pressure: tc.pressure}, sys)
			if detail == "" {
				if len(o.findings) != 0 {
					t.Fatalf("findings %+v, want none", o.findings)
				}
				return
			}
			if len(o.findings) != 1 || o.findings[0].Kind != kind || o.findings[0].Detail != detail {
				t.Fatalf("findings %+v, want one %v finding %q", o.findings, kind, detail)
			}
		})
	}
}
