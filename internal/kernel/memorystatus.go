// memorystatus.go implements the kernel's resource-governance ladder: the
// iOS jetsam/memorystatus subsystem re-hosted on the domestic kernel.
// Apps Cider runs natively are written against exactly these semantics —
// memory-pressure notifications first, then priority-ordered kills — so
// faithful re-hosting needs the resource layer, not just the syscall
// surface. Every decision runs on the virtual clock and iterates tasks in
// sorted order, so the whole degradation ladder is bit-reproducible under
// replay.
package kernel

import (
	"fmt"
	"path"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Band is a jetsam priority band. Lower values are more important; kills
// walk the bands from Idle down toward Foreground, which is only ever
// touched when nothing else is left.
type Band int

const (
	// BandForeground is the user-visible app: last to die.
	BandForeground Band = iota
	// BandBackground is a backgrounded app.
	BandBackground
	// BandDaemon is a launchd-supervised service (respawned after jetsam).
	BandDaemon
	// BandIdle is a suspended/idle process: first to die.
	BandIdle
	numBands
)

var bandNames = [...]string{"foreground", "background", "daemon", "idle"}

func (b Band) String() string {
	if b >= 0 && int(b) < len(bandNames) {
		return bandNames[b]
	}
	return fmt.Sprintf("band(%d)", int(b))
}

// PressureLevel is a memory-pressure notification level in canonical
// (kernel) numbering. The user-space runtimes translate it into their
// persona's vocabulary: libsystem into XNU dispatch-source flags, bionic
// into Linux/Android trim levels.
type PressureLevel int

const (
	// PressureNormal means below the warn watermark.
	PressureNormal PressureLevel = iota
	// PressureWarn asks cooperative apps to shed caches.
	PressureWarn
	// PressureCritical precedes kills.
	PressureCritical
)

func (l PressureLevel) String() string {
	switch l {
	case PressureNormal:
		return "normal"
	case PressureWarn:
		return "warn"
	case PressureCritical:
		return "critical"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Watermark fractions of the jetsam budget. 70% of available RAM triggers
// pressure notifications; 85% starts killing. Both are pure functions of
// the hw profile, so the ladder engages at the same virtual instant on
// every run.
const (
	warnNumerator     = 70
	criticalNumerator = 85
	watermarkDenom    = 100
)

// bandLimitDivisor gives each band's per-task footprint ceiling as a
// fraction of the jetsam budget: a foreground app may grow to half the
// budget, an idle process to 1/32 of it. Exceeding the ceiling is a
// highwater kill of that task alone, independent of global pressure.
var bandLimitDivisor = [numBands]uint64{
	BandForeground: 2,
	BandBackground: 8,
	BandDaemon:     16,
	BandIdle:       32,
}

// jetsamLogDir is where the kernel writes jetsam reports, beside the
// crash reports crashreporterd produces (services.CrashLogDir — the
// kernel cannot import services, so the path is duplicated here).
const jetsamLogDir = "/var/log/crashes"

// pressureHandler is one registered pressure-notification callback.
type pressureHandler struct {
	pid int
	seq int
	tk  *Task
	fn  func(level PressureLevel)
}

// Memorystatus is the kernel's resource-governance state: the jetsam
// budget and watermarks derived from the device profile, per-task priority
// bands, registered pressure handlers, and the record of kills.
type Memorystatus struct {
	k *Kernel

	// budget, warn and critical derive from hw.MemModel.JetsamBudget().
	budget   uint64
	warn     uint64
	critical uint64

	// bands maps pid -> jetsam band; absent means BandForeground.
	bands map[int]Band
	// essential pids (launchd) are never victims.
	essential map[int]bool

	// handlers are pressure-notification registrations, delivered in
	// (pid, registration order) so delivery order never depends on map
	// iteration.
	handlers []*pressureHandler
	nextSeq  int

	// level is the last ladder level announced (edge-triggered notify).
	level PressureLevel

	// pending marks tasks a kill has been issued for but whose exit has
	// not happened yet: excluded from usage and from victim selection so
	// one episode converges without waiting for the victims to run.
	pending map[int]bool
	// jetsammed records pids killed by jetsam until a supervisor claims
	// them via TakeJetsam — how launchd tells jetsam from crashes.
	jetsammed map[int]Band

	// kills counts victims per band for tests and cider stats.
	kills [numBands]uint64
	// busy guards against reentry: a pressure handler shedding caches
	// produces footprint deltas of its own.
	busy bool
}

// newMemorystatus builds the subsystem for a booted kernel.
func newMemorystatus(k *Kernel) *Memorystatus {
	budget := k.device.Mem.JetsamBudget()
	return &Memorystatus{
		k:         k,
		budget:    budget,
		warn:      budget * warnNumerator / watermarkDenom,
		critical:  budget * criticalNumerator / watermarkDenom,
		bands:     make(map[int]Band),
		essential: make(map[int]bool),
		pending:   make(map[int]bool),
		jetsammed: make(map[int]Band),
	}
}

// Memorystatus returns the kernel's resource-governance subsystem.
func (k *Kernel) Memorystatus() *Memorystatus { return k.memstat }

// BandLimit returns the per-task footprint ceiling for a band.
func (ms *Memorystatus) BandLimit(b Band) uint64 {
	if b < 0 || b >= numBands {
		return ms.budget
	}
	return ms.budget / bandLimitDivisor[b]
}

// SetBand assigns a task's jetsam priority band.
func (ms *Memorystatus) SetBand(tk *Task, b Band) {
	if b < 0 || b >= numBands {
		return
	}
	ms.bands[tk.pid] = b
}

// SetEssential exempts a task from victim selection entirely (launchd:
// killing pid 1 would take the whole cell down, the opposite of graceful
// degradation).
func (ms *Memorystatus) SetEssential(tk *Task) { ms.essential[tk.pid] = true }

// OnPressure registers a memory-pressure handler on behalf of tk. The
// handler runs synchronously in the context of whichever thread crossed
// the watermark — the shrinker convention — so registrants must only
// touch state that tolerates foreign-thread execution (cache drops).
// Registrations die with the task.
func (ms *Memorystatus) OnPressure(tk *Task, fn func(level PressureLevel)) {
	ms.handlers = append(ms.handlers, &pressureHandler{pid: tk.pid, seq: ms.nextSeq, tk: tk, fn: fn})
	ms.nextSeq++
}

// Kills returns the total and per-band jetsam kill counts.
func (ms *Memorystatus) Kills() (total uint64, perBand [int(numBands)]uint64) {
	for b, n := range ms.kills {
		perBand[b] = n
		total += n
	}
	return total, perBand
}

// taskExit retires a task's governance state on exit: its kill (if one
// was issued) is no longer pending, and its band assignment dies with it.
// The jetsammed record survives until a supervisor claims it.
func (ms *Memorystatus) taskExit(tk *Task) {
	delete(ms.pending, tk.pid)
	delete(ms.bands, tk.pid)
	delete(ms.essential, tk.pid)
}

// TakeJetsam reports whether pid's death was a jetsam kill, consuming the
// record. launchd's supervisor calls this for every abnormal child exit
// to keep load-shedding out of the crash-loop accounting.
func (ms *Memorystatus) TakeJetsam(pid int) (Band, bool) {
	b, ok := ms.jetsammed[pid]
	if ok {
		delete(ms.jetsammed, pid)
	}
	return b, ok
}

// Usage returns the resident bytes currently charged against the jetsam
// budget: the footprint sum over running tasks, excluding victims whose
// kill is already issued. Computed on demand from the authoritative
// per-space ledgers, so it cannot drift.
func (ms *Memorystatus) Usage() uint64 {
	var sum uint64
	for pid, tk := range ms.k.tasks {
		if tk.state != taskRunning || ms.pending[pid] {
			continue
		}
		sum += tk.mem.Footprint()
	}
	return sum
}

// footprintDelta is the FootprintHook target: every resident-byte change
// of every task funnels through here. Releases (negative deltas) never
// start an episode; growth re-evaluates the ladder.
func (ms *Memorystatus) footprintDelta(tk *Task, delta int64) {
	if delta <= 0 || ms.busy {
		return
	}
	// Outside simulated execution (boot-time image assembly) there is no
	// proc to charge the ladder's work to; the next in-sim growth
	// re-evaluates with the same ledger.
	p := ms.k.sim.Current()
	if p == nil {
		return
	}
	ms.busy = true
	defer func() { ms.busy = false }()

	// Fault-injected episodes: an OpMemPressure rule keyed by the charging
	// task's executable path forces the ladder through a warn (notify) or,
	// with Errno 2, a critical (single-kill) episode using the real
	// machinery — only the watermark comparison is overridden. This is how
	// the pressure soaks drive deterministic storms without allocating
	// device-scale buffers on the host.
	if in := ms.k.fault; in != nil && in.Has(fault.OpMemPressure) {
		if out, fire := in.MemPressure(p.Now(), tk.path); fire {
			if out.Delay > 0 {
				p.Advance(out.Delay)
			}
			if out.Errno == int(PressureCritical) {
				ms.notify(PressureCritical)
				ms.killOne()
			} else {
				ms.notify(PressureWarn)
			}
			return
		}
	}

	// Highwater: a task over its band's per-task ceiling is killed alone,
	// regardless of global pressure.
	band := ms.bands[tk.pid]
	if !ms.essential[tk.pid] && !ms.pending[tk.pid] && tk.mem.Footprint() > ms.BandLimit(band) {
		ms.jetsam(tk, "highwater")
		return
	}

	// Organic watermark ladder, edge-triggered: crossing warn notifies
	// once; crossing critical notifies and kills until usage drops below
	// the critical line.
	usage := ms.Usage()
	switch {
	case usage >= ms.critical:
		if ms.level < PressureCritical {
			ms.level = PressureCritical
			ms.notify(PressureCritical)
		}
		for ms.Usage() >= ms.critical {
			if !ms.killOne() {
				break // nothing left to kill
			}
		}
	case usage >= ms.warn:
		if ms.level < PressureWarn {
			ms.level = PressureWarn
			ms.notify(PressureWarn)
		}
	default:
		ms.level = PressureNormal
	}
}

// notify delivers a pressure level to every registered handler in
// (pid, registration) order, charging the current thread for each
// delivery — the shrinker model: whoever crossed the watermark pays for
// the shedding it triggers.
func (ms *Memorystatus) notify(level PressureLevel) {
	p := ms.k.sim.Current()
	// Compact dead registrations first so delivery order is a pure
	// function of the live set.
	live := ms.handlers[:0]
	for _, h := range ms.handlers {
		if h.tk.state == taskRunning && !ms.pending[h.pid] {
			live = append(live, h)
		}
	}
	ms.handlers = live
	sort.SliceStable(ms.handlers, func(i, j int) bool {
		if ms.handlers[i].pid != ms.handlers[j].pid {
			return ms.handlers[i].pid < ms.handlers[j].pid
		}
		return ms.handlers[i].seq < ms.handlers[j].seq
	})
	for _, h := range ms.handlers {
		p.Advance(ms.k.costs.PressureNotify)
		if tr := ms.k.tracer; tr != nil {
			tr.Count(trace.CounterPressureNotify, 1)
		}
		h.fn(level)
	}
}

// killOne selects and kills the single worst victim: highest band value
// (Idle first), then largest footprint, then lowest pid. Foreground tasks
// are only eligible when no other band has candidates — the
// foreground-survival invariant. Returns false when no victim exists.
func (ms *Memorystatus) killOne() bool {
	var victim *Task
	var victimBand Band
	candidate := func(tk *Task, b Band) bool {
		if victim == nil {
			return true
		}
		if b != victimBand {
			return b > victimBand
		}
		vf, tf := victim.mem.Footprint(), tk.mem.Footprint()
		if tf != vf {
			return tf > vf
		}
		return tk.pid < victim.pid
	}
	pids := make([]int, 0, len(ms.k.tasks))
	for pid := range ms.k.tasks {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	foregroundOnly := true
	for _, pid := range pids {
		tk := ms.k.tasks[pid]
		if tk.state != taskRunning || ms.pending[pid] || ms.essential[pid] {
			continue
		}
		b := ms.bands[pid]
		if b != BandForeground {
			foregroundOnly = false
		}
	}
	for _, pid := range pids {
		tk := ms.k.tasks[pid]
		if tk.state != taskRunning || ms.pending[pid] || ms.essential[pid] {
			continue
		}
		b := ms.bands[pid]
		if b == BandForeground && !foregroundOnly {
			continue
		}
		if candidate(tk, b) {
			victim = tk
			victimBand = b
		}
	}
	if victim == nil {
		return false
	}
	ms.jetsam(victim, "vm-pressure")
	return true
}

// jetsam kills one task: write the jetsam report beside the crash
// reports, record the kill for the supervisor and the counters, and post
// SIGKILL — the same exception/termination path a crash takes, so the
// victim's teardown (descriptor close, unmap, zombie, SIGCHLD) is the
// already-audited one.
func (ms *Memorystatus) jetsam(tk *Task, cause string) {
	k := ms.k
	band := ms.bands[tk.pid]
	ms.pending[tk.pid] = true
	ms.jetsammed[tk.pid] = band
	ms.kills[band]++
	p := k.sim.Current()
	p.Advance(k.costs.JetsamKill)
	ms.writeReport(tk, band, cause, p.Now())
	if tr := k.tracer; tr != nil {
		tr.Count(trace.CounterJetsamKills, 1)
		tr.Count(trace.CounterJetsamKills+"."+band.String(), 1)
	}
	k.postSignal(tk, sigKILL)
}

// writeReport persists the jetsam record into the VFS crash-log
// directory, beside crashreporterd's crash reports and in the same
// key=value shape. Deterministic naming (victim, pid, virtual timestamp)
// makes every run produce the identical file set.
func (ms *Memorystatus) writeReport(tk *Task, band Band, cause string, now time.Duration) {
	name := path.Base(tk.path)
	if name == "" || name == "." {
		name = "unknown"
	}
	file := fmt.Sprintf("%s/%s-pid%d-%dns.jetsam", jetsamLogDir, name, tk.pid, now.Nanoseconds())
	body := fmt.Sprintf(
		"reason=jetsam\ncause=%s\npid=%d\npath=%s\nband=%s\nfootprint=%d\nband_limit=%d\nusage=%d\nbudget=%d\nat_ns=%d\n",
		cause, tk.pid, tk.path, band, tk.mem.Footprint(), ms.BandLimit(band), ms.Usage(), ms.budget, now.Nanoseconds())
	if err := ms.k.root.MkdirAll(jetsamLogDir); err != nil {
		return
	}
	node, err := ms.k.root.Create(file)
	if err != nil {
		return
	}
	node.SetData([]byte(body))
}
