package soak

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ducttape"
	"repro/internal/fault"
	"repro/internal/figure"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/lmbench"
	"repro/internal/passmark"
	"repro/internal/prog"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

// CellRefs enumerates a schedule's cells in canonical order: the
// lmbench cells (configurations in paper order, tests in battery order
// within each), the per-configuration passmark cells when full, then
// the Mach IPC cell. Every soak digest, report and artifact indexes
// cells in this order, which is what lets a single cell re-execute in
// isolation: each cell is an independent System, so cell i's digest is
// the same whether its siblings ran or not.
func CellRefs(tests []lmbench.Test, full bool) []replay.CellRef {
	if tests == nil {
		tests = lmbench.AllTests()
	}
	var refs []replay.CellRef
	for _, c := range lmbench.Cells(tests) {
		refs = append(refs, replay.CellRef{Bench: "lmbench", Config: c.Config.Name, Test: c.Test.Name})
	}
	if full {
		for _, conf := range figure.Configurations() {
			refs = append(refs, replay.CellRef{Bench: "passmark", Config: conf.Name})
		}
	}
	refs = append(refs, replay.CellRef{Bench: "mach"})
	return refs
}

// CellReport is one cell's replay-facing outcome summary.
type CellReport struct {
	// Ref identifies the cell.
	Ref replay.CellRef
	// Digest fingerprints everything deterministic about the cell run:
	// benchmark results, injection counts, and the trace stream.
	Digest uint64
	// DecisionCount is how many scheduler decision points the run
	// consulted (0 when recording was off).
	DecisionCount uint64
	// Findings are the cell's invariant violations (empty = passed).
	Findings []string
	// Failed counts benchmark measurements that did not complete.
	Failed int
	// Injected counts fault-rule fires.
	Injected uint64
	// Artifact is the cell's recording: its one-command replay.
	Artifact *replay.Artifact
}

// cellOutcome is everything one cell contributes to a schedule Result;
// it is the replay.Outcome of a soak cell.
type cellOutcome struct {
	ref      replay.CellRef
	digest   uint64
	failed   int
	injected uint64
	counters map[string]uint64
	findings []replay.Finding
	// latPart fingerprints the cell's Fig. 5 latency contribution
	// (lmbench cells only; latPresent gates it).
	latPart    uint64
	latPresent bool
	// rec is the cell's report and recording (recording runs only).
	rec *CellReport
}

func (o *cellOutcome) Digest() uint64             { return o.digest }
func (o *cellOutcome) Findings() []replay.Finding { return o.findings }

// fail records a finding.
func (o *cellOutcome) fail(kind replay.FindingKind, format string, args ...any) {
	o.findings = append(o.findings, replay.Finding{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// cell is one soak cell as a replay.Cell: a single simulator, so a
// single decision stream.
type cell struct {
	s   Schedule
	ref replay.CellRef
}

func (c cell) Streams() int                          { return 1 }
func (c cell) Run(decs []sim.Decider) replay.Outcome { return c.run(decs[0]) }

func (c cell) Artifact() *replay.Artifact {
	plan, ref := c.s.Plan, c.ref
	return &replay.Artifact{
		Version: replay.ArtifactVersion, Kind: replay.KindSoak, Schedule: c.s.Name, Plan: &plan,
		Services: c.s.Services, Pressure: c.s.Pressure, FDHog: c.s.FDHog, Cell: &ref,
	}
}

// run executes the cell in isolation. dec, when non-nil, is installed
// as the cell System's scheduler Decider (recording, replay, or
// exploration).
func (c cell) run(dec sim.Decider) *cellOutcome {
	switch c.ref.Bench {
	case "lmbench", "passmark":
		return runFigureCell(c.s, c.ref, dec)
	case "mach":
		return runMachCell(c.s, dec)
	}
	o := &cellOutcome{ref: c.ref}
	o.fail(replay.Setup, "unknown cell bench %q", c.ref.Bench)
	return o
}

// auditSystem folds one booted System's post-run state into the
// outcome: injection counts, the trace stream, supervision accounting,
// and the kernel leak check.
func (o *cellOutcome) auditSystem(d *replay.Digest, s Schedule, sys *core.System) {
	if sys.Fault != nil {
		o.injected += sys.Fault.Fired()
		d.U64(sys.Fault.Fired())
	}
	digestSession(d, sys.Trace)
	o.collectCounters(sys.Trace)
	// Nothing reads the session after the audit: recycle its ring.
	sys.Trace.Release()
	crashes, respawns := o.counters[trace.CounterLaunchdCrashes], o.counters[trace.CounterLaunchdRespawns]
	if throttled := o.counters[trace.CounterLaunchdThrottled]; crashes > respawns+throttled+1 {
		o.fail(replay.Supervision,
			"cell %s: supervision lost services: %d crashes vs %d respawns + %d throttled",
			o.ref, crashes, respawns, throttled)
	}
	if s.Pressure && sys.Kernel != nil {
		// The foreground-survival invariant: however hard the storm blows,
		// jetsam must exhaust the idle, daemon and background bands before
		// it ever touches a foreground task — and the pressure schedules
		// never push that far, so a foreground kill is a victim-ordering
		// bug, not load shedding.
		total, perBand := sys.Kernel.Memorystatus().Kills()
		if perBand[kernel.BandForeground] != 0 {
			o.fail(replay.Foreground,
				"cell %s: foreground-survival violated: %d foreground kill(s) of %d total",
				o.ref, perBand[kernel.BandForeground], total)
		}
	}
	if err := sys.Kernel.LeakCheck(); err != nil {
		o.fail(replay.Leak, "cell %s: %v", o.ref, err)
	}
}

func (o *cellOutcome) collectCounters(tr *trace.Session) {
	if tr == nil {
		return
	}
	if o.counters == nil {
		o.counters = map[string]uint64{}
	}
	for _, c := range tr.Counters() {
		o.counters[c.Name] += c.Value
	}
}

// byName finds the element of xs whose name is name.
func byName[T any](xs []T, name string, nameOf func(T) string) (T, bool) {
	for _, x := range xs {
		if nameOf(x) == name {
			return x, true
		}
	}
	var zero T
	return zero, false
}

// runFigureCell runs one Fig. 5 (lmbench) or Fig. 6 (passmark) cell
// under the schedule. The hook arms the schedule on the booted System:
// its fault plan, and its services, memory pressure and fd hog when it
// has them. A failed run's error text is folded, a deadlock becomes a
// finding, and the System is audited and closed, alike for both.
func runFigureCell(s Schedule, ref replay.CellRef, dec sim.Decider) *cellOutcome {
	lm := ref.Bench == "lmbench"
	o := &cellOutcome{ref: ref, latPresent: lm}
	d, ld := replay.NewDigest(), replay.NewDigest()
	d.Str(ref.Bench)
	d.Str(ref.Config)
	if lm {
		d.Str(ref.Test)
		ld.Str(ref.Test)
	}
	var sys *core.System
	hook := func(y *core.System) {
		y.EnableTrace()
		y.EnableFaults(s.Plan)
		if s.Services {
			bootCellServices(y)
		}
		if s.Pressure {
			bootCellPressure(y)
		}
		if s.FDHog {
			bootCellFDHog(y)
		}
		if dec != nil {
			y.Sim.SetDecider(dec)
		}
		sys = y
	}
	conf, okC := byName(figure.Configurations(), ref.Config, func(c figure.Configuration) string { return c.Name })
	test, okT := byName(lmbench.AllTests(), ref.Test, func(t lmbench.Test) string { return t.Name })
	var err error
	switch {
	case !okC || lm && !okT:
		o.fail(replay.Setup, "cell %s: unknown %s config/test", ref, ref.Bench)
	case lm:
		var rs []lmbench.Result
		if rs, err = lmbench.RunWith(conf, []lmbench.Test{test}, hook); err != nil {
			ld.Str("err:" + err.Error())
		}
		for _, r := range rs {
			d.U64(uint64(r.Latency))
			ld.U64(uint64(r.Latency))
			d.Flag(r.Failed)
			ld.Flag(r.Failed)
			if r.Failed {
				o.failed++
			}
		}
	default:
		var rs []passmark.Result
		rs, err = passmark.RunWith(conf, passmark.AllTests(), hook)
		for _, r := range rs {
			d.Str(r.Test)
			d.U64(uint64(int64(r.Score * 1e6)))
			d.Flag(r.Err != nil)
			if r.Err != nil {
				o.failed++
			}
		}
	}
	if err != nil {
		d.Str("err:" + err.Error())
		var dl *sim.ErrDeadlock
		if errors.As(err, &dl) {
			o.fail(replay.Deadlock, "cell %s deadlocked under %q: %v", ref, s.Name, dl.Report())
		}
	}
	if sys != nil {
		o.auditSystem(d, s, sys)
		sys.Close()
	}
	o.digest, o.latPart = d.Sum(), ld.Sum()
	return o
}

// runMachCell drives a purpose-built Mach IPC workload under the
// schedule. The Fig. 5/6 batteries never call mach_msg (iOS benchmark
// syscalls ride the BSD half of the XNU table), so the soak matrix
// exercises the duct-taped subsystem directly: cross-task messaging
// under queue pressure, interrupted sends/receives with bounded retry,
// dead-name notifications, and task-exit teardown of a space still
// holding live receive rights.
func runMachCell(s Schedule, dec sim.Decider) (o *cellOutcome) {
	o = &cellOutcome{ref: replay.CellRef{Bench: "mach"}}
	d := replay.NewDigest()
	d.Str("mach-cell")
	// Named result: the deferred digest capture must land in the value
	// the caller sees, on every return path below.
	defer func() { o.digest = d.Sum() }()

	sm := sim.New()
	// Every return path below has finished auditing the kernel by the
	// time this runs.
	defer sm.Close()
	k, err := kernel.New(sm, kernel.Config{
		Profile: kernel.ProfileCider, Device: hw.Nexus7(),
		Root: vfs.New(), Registry: prog.NewRegistry(),
	})
	if err != nil {
		o.fail(replay.Setup, "mach cell: boot: %v", err)
		return o
	}
	k.InstallLinuxTable()
	k.RegisterBinFmt(&kernel.ELFLoader{})
	ipc, err := xnu.InstallIPC(k, ducttape.NewEnv(k))
	if err != nil {
		o.fail(replay.Setup, "mach cell: ipc: %v", err)
		return o
	}
	tr := trace.NewSession("mach-cell")
	sm.SetSink(tr)
	k.SetTracer(tr)
	if dec != nil {
		sm.SetDecider(dec)
	}
	in := fault.NewInjector(s.Plan)
	in.OnInject = func(op fault.Op, key string, out fault.Outcome, now time.Duration) {
		proc, id := "", 0
		if cur := sm.Current(); cur != nil {
			proc, id = cur.Name(), cur.ID()
		}
		tr.Fault(proc, id, op.String(), key, out.Errno, now)
	}
	k.EnableFaults(in)

	const msgs = 48
	const tick = 100 * time.Microsecond
	var sent, received, retries, gaveUp uint64
	var notified bool
	serverReady := false
	ready := sim.NewWaitQueue("soak-ready")

	spawn := func(key string, body func(*kernel.Thread)) error {
		k.Registry().MustRegister(key, func(c *prog.Call) uint64 {
			body(c.Ctx.(*kernel.Thread))
			return 0
		})
		bin, berr := prog.StaticELF(key)
		if berr != nil {
			return berr
		}
		if werr := k.Root().(*vfs.FS).WriteFile("/bin/"+key, bin); werr != nil {
			return werr
		}
		_, serr := k.StartProcess("/bin/"+key, nil)
		return serr
	}

	err = spawn("soak-mach-server", func(th *kernel.Thread) {
		port, kr := ipc.PortAllocate(th)
		if kr != xnu.KernSuccess {
			return
		}
		cr, _ := ipc.MakeSendRight(th, port)
		ipc.SetBootstrapPort(cr.Port)
		serverReady = true
		ready.WakeAll(th.Proc(), sim.WakeNormal)
		// Bounded receive loop: injected interrupts and timeouts retry,
		// but the loop always terminates even if the client gives up.
		for attempts := 0; received < msgs && attempts < msgs*8; attempts++ {
			msg, rkr := ipc.Receive(th, port, 2*tick)
			if rkr == xnu.KernSuccess {
				received++
				_ = msg
			} else {
				retries++
				th.Charge(tick / 4)
			}
		}
		// Exit without destroying the port: task-exit teardown must reap
		// the receive right and fail any still-blocked sender.
	})
	if err == nil {
		err = spawn("soak-mach-client", func(th *kernel.Thread) {
			for !serverReady {
				// An injected interrupt just re-checks the flag and
				// re-parks; the loop condition is the real gate.
				if ready.Wait(th.Proc()) == sim.WakeInterrupted {
					continue
				}
			}
			for i := 0; i < msgs; i++ {
				ok := false
				for attempts := 0; attempts < 8; attempts++ {
					kr := ipc.Send(th, xnu.BootstrapName,
						&xnu.Message{ID: int32(i), Body: []byte("soak")}, 2*tick)
					if kr == xnu.KernSuccess {
						ok = true
						break
					}
					retries++
					th.Charge(tick / 4)
				}
				if ok {
					sent++
				} else {
					gaveUp++
				}
			}
		})
	}
	if err == nil {
		err = spawn("soak-mach-notify", func(th *kernel.Thread) {
			watched, kr := ipc.PortAllocate(th)
			if kr != xnu.KernSuccess {
				return
			}
			notify, kr := ipc.PortAllocate(th)
			if kr != xnu.KernSuccess {
				return
			}
			if kr = ipc.RequestDeadNameNotification(th, watched, notify); kr != xnu.KernSuccess {
				return
			}
			ipc.PortDestroy(th, watched)
			for attempts := 0; attempts < 8; attempts++ {
				msg, rkr := ipc.Receive(th, notify, 2*tick)
				if rkr == xnu.KernSuccess && msg.ID == xnu.MsgDeadNameNotification {
					notified = true
					break
				}
				th.Charge(tick / 4)
			}
		})
	}
	if err != nil {
		o.fail(replay.Setup, "mach cell: spawn: %v", err)
		return o
	}
	if rerr := sm.Run(); rerr != nil {
		d.Str("mach-err:" + rerr.Error())
		var dl *sim.ErrDeadlock
		if errors.As(rerr, &dl) {
			o.fail(replay.Deadlock, "mach cell deadlocked under %q: %v", s.Name, dl.Report())
		}
		return o
	}
	if s.Name == "clean" {
		// Without faults the workload must complete perfectly; under
		// injection partial completion is the point.
		if sent != msgs || received != msgs || !notified {
			o.fail(replay.Incomplete,
				"mach cell: clean run incomplete: sent=%d received=%d notified=%v", sent, received, notified)
		}
	}
	d.U64(sent)
	d.U64(received)
	d.U64(retries)
	d.U64(gaveUp)
	d.Flag(notified)
	fired := in.Fired()
	o.injected += fired
	d.U64(fired)
	digestSession(d, tr)
	o.collectCounters(tr)
	tr.Release()
	if lerr := k.LeakCheck(); lerr != nil {
		o.fail(replay.Leak, "mach cell (%s): %v", s.Name, lerr)
	}
	return o
}

// RecordCell runs one cell under a Recorder (wrapping inner, which may
// be nil for the canonical schedule or an Explorer for a perturbed one)
// and returns the replay artifact plus the cell report.
func RecordCell(s Schedule, ref replay.CellRef, inner sim.Decider, exploreSeed uint64) (*replay.Artifact, *CellReport) {
	out, a := replay.Record(cell{s: s, ref: ref}, exploreSeed, inner)
	return a, out.(*cellOutcome).report(a)
}

// report summarizes the outcome of a run recorded as a.
func (o *cellOutcome) report(a *replay.Artifact) *CellReport {
	r := &CellReport{Ref: o.ref, Digest: o.digest, DecisionCount: a.DecisionCount, Failed: o.failed, Injected: o.injected, Artifact: a}
	for _, f := range o.findings {
		r.Findings = append(r.Findings, f.Detail)
	}
	return r
}

// CellFor rebuilds the cell a soak artifact recorded, for replay.Replay.
func CellFor(a *replay.Artifact) (replay.Cell, error) {
	if a.Kind != replay.KindSoak {
		return nil, fmt.Errorf("soak: artifact kind %q is not %q", a.Kind, replay.KindSoak)
	}
	if a.Cell == nil || a.Plan == nil {
		return nil, fmt.Errorf("soak: artifact missing cell or plan")
	}
	s := Schedule{Name: a.Schedule, Plan: *a.Plan, Services: a.Services, Pressure: a.Pressure, FDHog: a.FDHog}
	return cell{s: s, ref: *a.Cell}, nil
}
