package diffcheck

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/abi"
	"repro/internal/bionic"
	"repro/internal/ducttape"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/mem"
	"repro/internal/persona"
	"repro/internal/posix"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

// machTick bounds every Mach send/receive the generator emits, so an
// injected queue stall can delay but never wedge a program.
const machTick = 200 * time.Microsecond

// memState is the program's cache-ballast ledger the pressure ops
// operate on: inflated chunk bases in inflation order, shed oldest-first
// (the cache-eviction shape both personas' shedding callbacks model).
type memState struct{ bases []uint64 }

// inflate maps and touches one anonymous ballast chunk of n bytes; the
// zero-fill commit is the footprint-charge point OpMemPressure rules
// count.
func (st *memState) inflate(th *kernel.Thread, n uint64) bool {
	r, err := th.Task().Mem().Map(0, n, mem.ProtRead|mem.ProtWrite, "[dc-cache]", false)
	if err != nil {
		return false
	}
	r.Backing().Commit()
	st.bases = append(st.bases, r.Base)
	return true
}

// shed releases the oldest ballast chunk, if any remains.
func (st *memState) shed(th *kernel.Thread) bool {
	if len(st.bases) == 0 {
		return false
	}
	base := st.bases[0]
	st.bases = st.bases[1:]
	return th.Task().Mem().Unmap(base) == nil
}

// machPingPong allocates a reply port, self-sends one message, and
// receives it back (the generator's Mach IPC pattern). Mach traps exist
// only in the XNU table, so an Android program brackets them with the
// set_persona diplomat hop (normalization strips those events).
func machPingPong(kind persona.Kind, th *kernel.Thread, id int32) (allocOK bool, sendKR, recvKR int, gotID int32) {
	if kind == persona.Android {
		bionic.Sys(th).SetPersona(persona.IOS)
	}
	gotID = -1
	ls := libsystem.Sys(th)
	if port := ls.MachReplyPort(); port != xnu.PortNull {
		allocOK = true
		sendKR = int(ls.MachSend(port, &xnu.Message{ID: id, Body: []byte("dc")}, machTick))
		msg, rkr := ls.MachReceive(port, machTick)
		recvKR = int(rkr)
		if msg != nil {
			gotID = msg.ID
		}
	}
	if kind == persona.Android {
		bionic.Sys(th).SetPersona(persona.Android)
	}
	return allocOK, sendKR, recvKR, gotID
}

// sigPool is the canonical signal set the generator draws from: the
// shared-numbering baseline (HUP), the classic translated pairs
// (USR1/USR2), and every number the bijection fix covers (TSTP, URG, IO,
// PWR, SYS). All are handled before being raised, so no default
// disposition ever terminates a program.
var sigPool = [...]int{
	kernel.SIGHUP, kernel.SIGUSR1, kernel.SIGUSR2, kernel.SIGTSTP,
	kernel.SIGURG, kernel.SIGIO, kernel.SIGPWR, kernel.SIGSYS,
}

// paths is the fixed file namespace programs operate in.
var paths = [...]string{"/f0", "/f1", "/f2", "/f3", "/f4", "/f5", "/f6", "/f7"}

// execProgram interprets p on th through kind's C library, appending one
// canonical result line per op to log. posix.Libc canonicalizes everything
// persona-specific at the library boundary (errnos to Linux numbering,
// signal and rlimit numbers, pressure levels), so the logs of the two
// cells are directly comparable: anything that still differs is, by
// construction, a behavioral divergence. execProgram must never block
// unboundedly: reads and writes are poll-guarded, selects and Mach calls
// carry timeouts, and the only blocking wait (wait4) is on a child
// guaranteed to exit.
func execProgram(kind persona.Kind, th *kernel.Thread, p *Program, log *[]string) {
	c := posix.New(kind, th)
	var cache memState
	var slots [8]int
	for i := range slots {
		slots[i] = -1
	}
	slot := func(v uint64) *int { return &slots[v%uint64(len(slots))] }
	path := func(v uint64) string { return paths[v%uint64(len(paths))] }
	emit := func(i int, op Op, format string, args ...any) {
		*log = append(*log, fmt.Sprintf("%02d %s ", i, op.Kind)+fmt.Sprintf(format, args...))
	}
	// Pressure ops share one shedding listener (armed on first use) and a
	// running log of canonicalized levels; delivery is synchronous with
	// the inflation that crossed the injected watermark, so the log each
	// op emits is deterministic.
	var pressureLog []string
	pressureArmed := false
	// pollReady reports fd readiness without blocking (timeout 0).
	pollReady := func(fd int, write bool) (bool, kernel.Errno) {
		req := &kernel.SelectRequest{Timeout: 0}
		if write {
			req.WriteFDs = []int{fd}
		} else {
			req.ReadFDs = []int{fd}
		}
		res, errno := c.Select(req)
		if errno != kernel.OK {
			return false, errno
		}
		return res.N() > 0, kernel.OK
	}

	for i, op := range p.Ops {
		switch op.Kind {
		case opGetPID:
			emit(i, op, "pid=%d ppid=%d tls=%d", c.GetPID(), c.GetPPID(), c.Errno())
		case opPipe:
			r, w, errno := c.Pipe()
			*slot(op.A) = r
			*slot(op.B) = w
			emit(i, op, "r=%d w=%d errno=%v tls=%d", r, w, errno, c.Errno())
		case opSocketpair:
			a, b, errno := c.Socketpair()
			*slot(op.A) = a
			*slot(op.B) = b
			emit(i, op, "a=%d b=%d errno=%v tls=%d", a, b, errno, c.Errno())
		case opOpen:
			fd, errno := c.Open(path(op.A))
			*slot(op.B) = fd
			emit(i, op, "%s fd=%d errno=%v tls=%d", path(op.A), fd, errno, c.Errno())
		case opCreat:
			fd, errno := c.Creat(path(op.A))
			*slot(op.B) = fd
			emit(i, op, "%s fd=%d errno=%v tls=%d", path(op.A), fd, errno, c.Errno())
		case opOpenCreate:
			fd, errno := c.OpenCreate(path(op.A))
			*slot(op.B) = fd
			emit(i, op, "%s fd=%d errno=%v tls=%d", path(op.A), fd, errno, c.Errno())
		case opDup:
			fd, errno := c.Dup(*slot(op.A))
			*slot(op.B) = fd
			emit(i, op, "old=%d new=%d errno=%v tls=%d", *slot(op.A), fd, errno, c.Errno())
		case opClose:
			errno := c.Close(*slot(op.A))
			emit(i, op, "fd=%d errno=%v tls=%d", *slot(op.A), errno, c.Errno())
			*slot(op.A) = -1
		case opWrite:
			fd := *slot(op.A)
			ready, perr := pollReady(fd, true)
			if perr != kernel.OK {
				// Bad fd: attempt the write anyway for the errno.
				n, errno := c.Write(fd, []byte{0})
				emit(i, op, "fd=%d poll=%v n=%d errno=%v", fd, perr, n, errno)
				continue
			}
			if !ready {
				emit(i, op, "fd=%d notready", fd)
				continue
			}
			buf := make([]byte, 1+op.B%64)
			for j := range buf {
				buf[j] = byte('a' + i%26)
			}
			n, errno := c.Write(fd, buf)
			emit(i, op, "fd=%d n=%d errno=%v tls=%d", fd, n, errno, c.Errno())
		case opRead:
			fd := *slot(op.A)
			ready, perr := pollReady(fd, false)
			if perr != kernel.OK {
				n, errno := c.Read(fd, make([]byte, 1))
				emit(i, op, "fd=%d poll=%v n=%d errno=%v", fd, perr, n, errno)
				continue
			}
			if !ready {
				emit(i, op, "fd=%d notready", fd)
				continue
			}
			buf := make([]byte, 1+op.B%64)
			n, errno := c.Read(fd, buf)
			emit(i, op, "fd=%d n=%d data=%q errno=%v", fd, n, buf[:max(n, 0)], errno)
		case opUnlink:
			errno := c.Unlink(path(op.A))
			emit(i, op, "%s errno=%v tls=%d", path(op.A), errno, c.Errno())
		case opSelectPoll:
			req := &kernel.SelectRequest{
				ReadFDs:  []int{*slot(op.A), *slot(op.B)},
				WriteFDs: []int{*slot(op.C)},
				Timeout:  0,
			}
			res, errno := c.Select(req)
			n := 0
			if res != nil {
				n = res.N()
			}
			emit(i, op, "ready=%d errno=%v", n, errno)
		case opSignal:
			sig := sigPool[op.A%uint64(len(sigPool))]
			var delivered []int
			aerr := c.Sigaction(sig, func(canonical int) {
				delivered = append(delivered, canonical)
			})
			kerr := c.Kill(c.GetPID(), sig)
			emit(i, op, "sig=%d act=%v kill=%v delivered=%v", sig, aerr, kerr, delivered)
		case opForkWait:
			r, w, errno := c.Pipe()
			if errno != kernel.OK {
				emit(i, op, "pipe errno=%v", errno)
				continue
			}
			payload := []byte(fmt.Sprintf("c%d", op.A%100))
			status := int(op.A % 32)
			pid := c.Fork(func(cc posix.Libc) {
				cc.Write(w, payload)
				cc.Exit(status)
			})
			if pid < 0 {
				emit(i, op, "fork failed tls=%d", c.Errno())
				c.Close(r)
				c.Close(w)
				continue
			}
			wpid, wstatus, werr := c.Wait(pid)
			ready, _ := pollReady(r, false)
			buf := make([]byte, 16)
			n := 0
			if ready {
				n, _ = c.Read(r, buf)
			}
			c.Close(r)
			c.Close(w)
			emit(i, op, "child=%v status=%d werr=%v data=%q",
				wpid == pid, wstatus, werr, buf[:max(n, 0)])
		case opMach:
			id := int32(op.A % 100)
			ok, skr, rkr, got := machPingPong(kind, th, id)
			emit(i, op, "alloc=%v send=%d recv=%d id=%v", ok, skr, rkr, got == id)
		case opRlimit:
			// Canonical NOFILE on both personas; the iOS adapter renumbers
			// to XNU 8 at the boundary.
			switch op.A % 3 {
			case 0:
				cur, lim, errno := c.Getrlimit(kernel.RLimitNoFile)
				emit(i, op, "get nofile cur=%d max=%d errno=%v tls=%d", cur, lim, errno, c.Errno())
			case 1:
				soft := 24 + op.B%40
				serr := c.Setrlimit(kernel.RLimitNoFile, soft, 4096)
				cur, _, _ := c.Getrlimit(kernel.RLimitNoFile)
				emit(i, op, "set nofile=%d cur=%d errno=%v tls=%d", soft, cur, serr, c.Errno())
			case 2:
				serr := c.Setrlimit(kernel.RLimitNoFile, 512, 16)
				emit(i, op, "set cur>max errno=%v tls=%d", serr, c.Errno())
			}
		case opPressure:
			if !pressureArmed {
				pressureArmed = true
				c.OnPressure(func(level string) {
					pressureLog = append(pressureLog, level)
					cache.shed(th)
				})
			}
			ok := cache.inflate(th, (1+op.B%4)<<12)
			emit(i, op, "inflate=%v levels=%v tls=%d", ok, pressureLog, c.Errno())
		}
	}
}

// CellResult is everything one persona cell produced for a program:
// the canonical per-op result log, normalized per-process event streams,
// trace counters, and the cell's health signals.
type CellResult struct {
	Persona persona.Kind
	// Log is the executor's canonical per-op result log.
	Log []string
	// Events maps "proc#pid" to that process's normalized event lines.
	Events map[string][]string
	// Procs is the sorted key set of Events.
	Procs []string
	// Counters is the trace session's named-counter export.
	Counters map[string]uint64
	// Dropped counts ring-evicted events; non-zero poisons comparison.
	Dropped uint64
	// LeakErr is the post-run kernel.LeakCheck failure, if any.
	LeakErr string
	// Err is a boot or run failure, if any.
	Err string
}

// progKey is the registry key and binary name both cells share, so
// process names (and therefore per-proc event stream keys) line up.
const progKey = "diffcheck-main"

// RunCellDecided executes p in a fresh minimal Cider cell under the
// given persona and fault plan and collects the comparison inputs. dec
// is attached to the cell's simulator before anything runs: a
// replay.Recorder to log the schedule, a replay.Explorer to perturb it,
// or a replay.Replayer to pin it to a recorded artifact; nil runs the
// canonical schedule.
func RunCellDecided(p *Program, ios bool, plan fault.Plan, dec sim.Decider) *CellResult {
	res := &CellResult{Persona: persona.Android}
	if ios {
		res.Persona = persona.IOS
	}
	sm := sim.New()
	// Runs once the cell's session and leak check have been read.
	defer sm.Close()
	sm.SetDecider(dec)
	k, err := kernel.New(sm, kernel.Config{
		Profile: kernel.ProfileCider, Device: hw.Nexus7(),
		Root: vfs.New(), Registry: prog.NewRegistry(),
	})
	if err != nil {
		res.Err = fmt.Sprintf("boot: %v", err)
		return res
	}
	k.InstallLinuxTable()
	abi.InstallXNUTable(k)
	if _, err := xnu.InstallIPC(k, ducttape.NewEnv(k)); err != nil {
		res.Err = fmt.Sprintf("ipc: %v", err)
		return res
	}
	k.RegisterBinFmt(&kernel.ELFLoader{})
	tr := trace.NewSession("diffcheck")
	// The capacity is a bound, not an allocation: ring storage grows
	// with the events a short program records, and a bound far above
	// that guarantees Dropped()==0 so the comparison sees complete
	// streams.
	tr.SetRingCapacity(1 << 16)
	sm.SetSink(tr)
	k.SetTracer(tr)
	k.EnableFaults(fault.NewInjector(plan))

	k.Registry().MustRegister(progKey, func(call *prog.Call) uint64 {
		th := call.Ctx.(*kernel.Thread)
		if ios {
			th.Persona.Switch(persona.IOS)
		}
		execProgram(res.Persona, th, p, &res.Log)
		return 0
	})
	if err := prog.InstallStatic(k.Root().(*vfs.FS), "/bin/"+progKey, progKey); err != nil {
		res.Err = fmt.Sprintf("install: %v", err)
		return res
	}
	if _, err := k.StartProcess("/bin/"+progKey, nil); err != nil {
		res.Err = fmt.Sprintf("start: %v", err)
		return res
	}
	if err := sm.Run(); err != nil {
		res.Err = fmt.Sprintf("run: %v", err)
		return res
	}
	if err := k.LeakCheck(); err != nil {
		res.LeakErr = err.Error()
	}
	res.Dropped = tr.Dropped()
	res.Events = map[string][]string{}
	tr.Walk(func(ev *trace.Event) {
		if line, procKey, keep := normalizeEvent(*ev); keep {
			res.Events[procKey] = append(res.Events[procKey], line)
		}
	})
	for key := range res.Events {
		res.Procs = append(res.Procs, key)
	}
	sort.Strings(res.Procs)
	res.Counters = map[string]uint64{}
	for _, nc := range tr.Counters() {
		res.Counters[nc.Name] = nc.Value
	}
	// The result holds copies of everything it needs: recycle the ring.
	tr.Release()
	return res
}
