package services

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

// SyslogCapacity bounds the syslog ring: under long soaks and crash
// storms the log must not grow without limit.
const SyslogCapacity = 512

// SyslogBuffer is syslogd's captured log, exposed for tests and the cider
// CLI: a fixed-capacity ring that evicts the oldest line when full and
// counts what it dropped.
type SyslogBuffer struct {
	lines   []string
	start   int
	dropped uint64
}

// Append adds a line, evicting the oldest when the ring is full; it
// reports whether a line was dropped.
func (b *SyslogBuffer) Append(line string) bool {
	if len(b.lines) < SyslogCapacity {
		b.lines = append(b.lines, line)
		return false
	}
	b.lines[b.start] = line
	b.start++
	if b.start == SyslogCapacity {
		b.start = 0
	}
	b.dropped++
	return true
}

// Lines returns the retained lines oldest-first.
func (b *SyslogBuffer) Lines() []string {
	out := make([]string, 0, len(b.lines))
	out = append(out, b.lines[b.start:]...)
	out = append(out, b.lines[:b.start]...)
	return out
}

// Len returns the retained line count.
func (b *SyslogBuffer) Len() int { return len(b.lines) }

// Dropped returns how many lines were evicted.
func (b *SyslogBuffer) Dropped() uint64 { return b.dropped }

// RegisterAll installs the service programs (launchd, configd, notifyd,
// syslogd, crashreporterd) into the registry. The returned SyslogBuffer
// observes syslogd. Their Mach-O binaries come from InstallImage.
func RegisterAll(reg *prog.Registry) (*SyslogBuffer, error) {
	slog := &SyslogBuffer{}

	register := func(key string, body func(t *kernel.Thread) uint64) error {
		return reg.Register(key, func(c *prog.Call) uint64 {
			t := c.Ctx.(*kernel.Thread)
			// Daemons never exit; the simulation may end while they wait.
			t.Proc().SetDaemon(true)
			// System services sit in the daemon jetsam band: below any
			// foreground app, above idle — memorystatus reaps them only
			// after the idle and background bands are empty, and launchd's
			// KeepAlive brings them back.
			t.Kernel().Memorystatus().SetBand(t.Task(), kernel.BandDaemon)
			return body(t)
		})
	}

	if err := register(LaunchdKey, launchdMain); err != nil {
		return nil, err
	}
	if err := register(ConfigdKey, configdMain); err != nil {
		return nil, err
	}
	if err := register(NotifydKey, notifydMain); err != nil {
		return nil, err
	}
	if err := register(SyslogdKey, func(t *kernel.Thread) uint64 {
		return syslogdMain(t, slog)
	}); err != nil {
		return nil, err
	}
	if err := register(CrashReporterKey, crashReporterMain); err != nil {
		return nil, err
	}
	return slog, nil
}

// InstallImage lays the services' files into an iOS filesystem image: the
// daemons' Mach-O binaries (copied from an iOS device, per §3) and
// CrashLogDir. They depend on nothing but package constants, so the core
// filesystem template holds them once for every booted System.
func InstallImage(iosFS *vfs.FS) error {
	if err := iosFS.MkdirAll(CrashLogDir); err != nil {
		return err
	}
	for _, svc := range []struct{ path, key string }{
		{LaunchdPath, LaunchdKey},
		{ConfigdPath, ConfigdKey},
		{NotifydPath, NotifydKey},
		{SyslogdPath, SyslogdKey},
		{CrashReporterPath, CrashReporterKey},
	} {
		bin, err := prog.MachOExecutable(svc.key, []string{"/usr/lib/libSystem.B.dylib"}, nil)
		if err != nil {
			return err
		}
		if err := iosFS.WriteFile(svc.path, bin); err != nil {
			return err
		}
	}
	return nil
}

// Supervision (KeepAlive) constants. All delays are virtual-clock, so
// respawn timing is deterministic.
const (
	// RespawnBackoffBase is the delay before the first respawn of a
	// crashed service; it doubles per crash inside the flap window.
	RespawnBackoffBase = 10 * time.Millisecond
	// RespawnBackoffCap bounds the exponential backoff.
	RespawnBackoffCap = 160 * time.Millisecond
	// RespawnWindow is the flap-detection window.
	RespawnWindow = 2 * time.Second
	// RespawnMaxInWindow is the crash budget: one more crash inside the
	// window and launchd gives up on the service.
	RespawnMaxInWindow = 5
)

// launchdMain is pid-1-style: claim the bootstrap port, spawn the standard
// daemons, start the supervisor thread, then serve the name registry
// forever.
func launchdMain(t *kernel.Thread) uint64 {
	lc := libsystem.Sys(t)
	// launchd is pid-1: jetsam must never choose it, whatever its
	// footprint — kill it and nothing respawns anything.
	t.Kernel().Memorystatus().SetEssential(t.Task())
	ipc, ok := xnu.FromKernel(t.Kernel())
	if !ok {
		return 1
	}
	// Claim the bootstrap special port (task_set_special_port).
	bootstrap, kr := ipc.PortAllocate(t)
	if kr != xnu.KernSuccess {
		return 1
	}
	if r, kr := ipc.MakeSendRight(t, bootstrap); kr == xnu.KernSuccess {
		ipc.SetBootstrapPort(r.Port)
	}

	// Start the Mach IPC services (Section 2: "launchd starts Mach IPC
	// services such as configd, notifyd, ..."). crashreporterd first, so
	// the host exception port is up before anything can crash.
	children := make(map[int]string)
	for _, path := range []string{CrashReporterPath, ConfigdPath, NotifydPath, SyslogdPath} {
		if pid, errno := lc.PosixSpawn(path, nil); errno == kernel.OK {
			children[pid] = path
		}
	}

	// KeepAlive: a dedicated thread waits on the children and respawns
	// crashed services (the registry loop below must never block on wait4).
	t.SpawnThread("supervisor", func(nt *kernel.Thread) {
		nt.Proc().SetDaemon(true)
		superviseLoop(nt, children)
	})

	// Serve the bootstrap registry. Service names arrive as message bytes
	// on every register; interning hands back the same string each time a
	// respawned service re-registers, so steady-state registry traffic
	// stops allocating name strings.
	names := make(map[string]*xnu.CarriedRight)
	interned := make(internTable)
	for {
		msg, kr := lc.MachReceive(bootstrap, -1)
		if kr != xnu.KernSuccess {
			return 1
		}
		switch msg.ID {
		case MsgBootstrapRegister:
			if len(msg.RightNames) == 1 {
				name := interned.get(msg.Body)
				right, _ := ipc.MakeSendRight(t, msg.RightNames[0])
				if right != nil {
					// A respawned service re-registers here, replacing its
					// dead predecessor's right.
					names[name] = right
					if msg.ReplyName != xnu.PortNull {
						lc.MachSend(msg.ReplyName, &xnu.Message{ID: MsgBootstrapOK}, -1)
					}
					continue
				}
			}
			if msg.ReplyName != xnu.PortNull {
				lc.MachSend(msg.ReplyName, &xnu.Message{ID: MsgBootstrapErr}, -1)
			}
		case MsgBootstrapLookUp:
			right, ok := names[string(msg.Body)]
			if ok && right.Port.Dead() {
				// Prune a crashed service's stale right: clients get an
				// error (and retry) instead of a right to a dead port.
				delete(names, string(msg.Body))
				ok = false
			}
			if msg.ReplyName == xnu.PortNull {
				continue
			}
			if !ok {
				lc.MachSend(msg.ReplyName, &xnu.Message{ID: MsgBootstrapErr}, -1)
				continue
			}
			lc.MachSend(msg.ReplyName, &xnu.Message{
				ID:     MsgBootstrapOK,
				Rights: []xnu.CarriedRight{*right},
			}, -1)
		}
	}
}

// superviseLoop is launchd's KeepAlive wait loop: reap every child, and
// respawn crashed services with deterministic exponential backoff —
// throttling a service that crashes more than RespawnMaxInWindow times
// inside RespawnWindow (give up + syslog line).
func superviseLoop(t *kernel.Thread, children map[int]string) {
	lc := libsystem.Sys(t)
	tr := func() *trace.Session { return t.Kernel().Tracer() }
	// Per-service crash history inside the flap window.
	history := make(map[string][]time.Duration)
	throttled := make(map[string]bool)
	for {
		pid, status, errno := lc.Wait(-1)
		if errno == kernel.EINTR {
			continue
		}
		if errno != kernel.OK {
			return // ECHILD: every service exited clean or was throttled
		}
		path, ok := children[pid]
		if !ok {
			continue // not a supervised service
		}
		delete(children, pid)
		if status == 0 {
			continue // clean exit: KeepAlive respawns crashes only
		}
		if _, jetsammed := t.Kernel().Memorystatus().TakeJetsam(pid); jetsammed {
			// A jetsam kill is the system's doing, not the service's: it
			// must not count against the crash budget or trigger backoff —
			// a service reaped for memory would otherwise flap into
			// throttling during a pressure storm. Respawn immediately; if
			// pressure persists, memorystatus picks it again by the same
			// deterministic order.
			if s := tr(); s != nil {
				s.Count(trace.CounterLaunchdJetsam, 1)
			}
			npid, errno := lc.PosixSpawn(path, nil)
			if errno != kernel.OK {
				continue
			}
			children[npid] = path
			if s := tr(); s != nil {
				s.Count(trace.CounterLaunchdRespawns, 1)
				s.Respawn(t.Proc().Name(), t.Proc().ID(), path,
					fmt.Sprintf("respawn pid=%d after jetsam", npid), t.Now())
			}
			continue
		}
		now := t.Now()
		if s := tr(); s != nil {
			s.Count(trace.CounterLaunchdCrashes, 1)
		}
		if throttled[path] {
			continue
		}
		// Prune crashes that fell out of the window, then record this one.
		h := history[path][:0]
		for _, at := range history[path] {
			if now-at < RespawnWindow {
				h = append(h, at)
			}
		}
		h = append(h, now)
		history[path] = h
		if len(h) > RespawnMaxInWindow {
			throttled[path] = true
			if s := tr(); s != nil {
				s.Count(trace.CounterLaunchdThrottled, 1)
				s.Respawn(t.Proc().Name(), t.Proc().ID(), path, "throttled", t.Now())
			}
			// Best-effort give-up line; dropped if syslogd itself is down.
			slog := NewServiceClient(lc, SyslogdName)
			slog.Attempts = 2
			slog.Send(&xnu.Message{ID: MsgSyslog,
				Body: []byte(fmt.Sprintf("launchd: giving up on %s: %d crashes in window", path, len(h)))})
			continue
		}
		// Exponential backoff on the virtual clock: 10ms, 20ms, ... capped.
		backoff := RespawnBackoffBase << (len(h) - 1)
		if backoff > RespawnBackoffCap {
			backoff = RespawnBackoffCap
		}
		sleepFull(lc, backoff)
		npid, errno := lc.PosixSpawn(path, nil)
		if errno != kernel.OK {
			continue
		}
		children[npid] = path
		if s := tr(); s != nil {
			s.Count(trace.CounterLaunchdRespawns, 1)
			s.Respawn(t.Proc().Name(), t.Proc().ID(), path,
				fmt.Sprintf("respawn pid=%d backoff=%s", npid, backoff), t.Now())
		}
	}
}

// configdMain serves a key/value store over Mach IPC.
func configdMain(t *kernel.Thread) uint64 {
	lc := libsystem.Sys(t)
	port := lc.MachReplyPort()
	if err := BootstrapRegister(lc, ConfigdName, port); err != nil {
		return 1
	}
	store := map[string]string{
		"Model":            t.Kernel().Device().Name,
		"UserAssignedName": "Cider Device",
	}
	for {
		msg, kr := lc.MachReceive(port, -1)
		if kr != xnu.KernSuccess {
			return 1
		}
		switch msg.ID {
		case MsgConfigSet:
			if k, v, ok := strings.Cut(string(msg.Body), "="); ok {
				store[k] = v
			}
		case MsgConfigGet:
			if msg.ReplyName != xnu.PortNull {
				lc.MachSend(msg.ReplyName, &xnu.Message{
					ID:   MsgConfigReply,
					Body: []byte(store[string(msg.Body)]),
				}, -1)
			}
		}
	}
}

// notifydMain serves the asynchronous notification center.
func notifydMain(t *kernel.Thread) uint64 {
	lc := libsystem.Sys(t)
	ipc, _ := xnu.FromKernel(t.Kernel())
	port := lc.MachReplyPort()
	if err := BootstrapRegister(lc, NotifydName, port); err != nil {
		return 1
	}
	subs := make(map[string][]xnu.PortName)
	interned := make(internTable)
	for {
		msg, kr := lc.MachReceive(port, -1)
		if kr != xnu.KernSuccess {
			return 1
		}
		switch msg.ID {
		case MsgNotifyRegister:
			if len(msg.RightNames) == 1 {
				name := interned.get(msg.Body)
				subs[name] = append(subs[name], msg.RightNames[0])
			}
		case MsgNotifyPost:
			name := interned.get(msg.Body)
			for _, p := range subs[name] {
				// Best effort, bounded: notifications never block notifyd.
				_ = ipc
				lc.MachSend(p, &xnu.Message{ID: MsgNotifyDelivery, Body: []byte(name)}, 0)
			}
		}
	}
}

// syslogdMain collects log lines.
func syslogdMain(t *kernel.Thread, buf *SyslogBuffer) uint64 {
	lc := libsystem.Sys(t)
	port := lc.MachReplyPort()
	if err := BootstrapRegister(lc, SyslogdName, port); err != nil {
		return 1
	}
	for {
		msg, kr := lc.MachReceive(port, -1)
		if kr != xnu.KernSuccess {
			return 1
		}
		if msg.ID == MsgSyslog {
			if buf.Append(string(msg.Body)) {
				if tr := t.Kernel().Tracer(); tr != nil {
					tr.Count(trace.CounterSyslogDropped, 1)
				}
			}
		}
	}
}
