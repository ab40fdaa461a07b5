package kernel

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/persona"
	"repro/internal/vfs"
)

// Linux ARM EABI syscall numbers for the calls the simulation implements.
const (
	SysExit        = 1
	SysFork        = 2
	SysRead        = 3
	SysWrite       = 4
	SysOpen        = 5
	SysClose       = 6
	SysCreat       = 8
	SysUnlink      = 10
	SysExecve      = 11
	SysGetpid      = 20
	SysKill        = 37
	SysPipe        = 42
	SysIoctl       = 54
	SysDup         = 41
	SysGetppid     = 64
	SysSelect      = 142 // _newselect
	SysRtSigaction = 174
	SysWait4       = 114
	SysSocketpair  = 288 // ARM EABI socketpair
	SysSetrlimit   = 75
	SysGetrlimit   = 191 // ugetrlimit, the variant modern libcs call
	// SysSetPersona is the new syscall Cider adds, "available from all
	// personas" (Section 4.3). It occupies an unused slot.
	SysSetPersona = 983045
)

// SyscallArgs carries a syscall's arguments across the dispatch boundary.
// Raw integer registers ride in I; pointer-typed payloads that a real
// kernel would copy in from user memory ride in the typed fields (the
// simulation's stand-in for copy_from_user).
type SyscallArgs struct {
	// I holds up to six register arguments.
	I [6]uint64
	// Path is a pathname argument.
	Path string
	// Path2 is a second pathname (rename).
	Path2 string
	// Buf is a data buffer (read target / write source).
	Buf []byte
	// Argv is an argument vector (execve).
	Argv []string
	// Act is a signal disposition (sigaction).
	Act *SigAction
	// ChildFn is the child body for fork-family calls (the simulation's
	// stand-in for "returns twice"; see Thread.forkInternal).
	ChildFn func(*Thread)
	// Select is the descriptor-set payload for select(2).
	Select *SelectRequest
	// Carrier is a Mach trap's user-space message buffer (mach_msg's
	// *abi.MsgCarrier). The kernel copies it with the other arguments
	// and never reads it; the trap handler does.
	Carrier any
}

// SyscallRet carries a syscall's results.
type SyscallRet struct {
	// R0 is the primary return value.
	R0 uint64
	// R1 is the secondary return value (pipe, socketpair).
	R1 uint64
	// Errno is OK on success.
	Errno Errno
	// Select is select's result payload.
	Select *SelectResult
}

// SyscallHandler implements one syscall. a is the calling thread's
// argument slot for the trap (see Thread.Syscall): the handler may rewrite
// the registers a.I in place (the XNU translators renumber there), treats
// the other fields as read-only, and must not keep a after it returns.
type SyscallHandler func(t *Thread, a *SyscallArgs) SyscallRet

// SyscallTable is one persona's dispatch table. Cider "maintains one or
// more syscall dispatch tables for each persona, and switches among them
// based on the persona of the calling thread and the syscall number"
// (Section 4.1).
type SyscallTable struct {
	// Name identifies the table ("linux", "xnu-bsd").
	Name string
	// EntryExtra and ExitExtra are charged around every call through this
	// table — the XNU table carries the trap-demux/translation costs.
	EntryExtra time.Duration
	ExitExtra  time.Duration
	// dense is the dispatch array for the contiguous low syscall-number
	// range: dispatch is an index and a nil check, no hashing. ABI numbers
	// cluster near zero; the only outliers are Cider's set_persona
	// (983045) and the negative Mach traps, which live in the fallback map.
	dense    []syscallEntry
	outliers map[int]syscallEntry
	// shared marks dense and outliers as another table's: tb is a View
	// and copies both before its first Register (see own).
	shared bool
}

// syscallEntry is one registered handler and its name.
type syscallEntry struct {
	h    SyscallHandler
	name string
}

// SyscallDef is one entry of a table's definition list.
type SyscallDef struct {
	Num  int
	Name string
	H    SyscallHandler
}

// maxDense bounds the dense array: numbers at or above this (set_persona's
// unused-slot encoding) go to the outlier map rather than growing a
// megabyte of nil handler slots.
const maxDense = 4096

// NewSyscallTable creates a table holding defs. The dense array is sized
// once, to the largest dense number in defs plus one, so building a
// table copies no handler array; Register adds later entries.
func NewSyscallTable(name string, defs ...SyscallDef) *SyscallTable {
	tb := &SyscallTable{Name: name}
	size := 0
	for _, d := range defs {
		if isDense(d.Num) {
			size = max(size, d.Num+1)
		}
	}
	tb.dense = make([]syscallEntry, size)
	for _, d := range defs {
		tb.Register(d.Num, d.Name, d.H)
	}
	return tb
}

func isDense(num int) bool { return num >= 0 && num < maxDense }

// View returns a table that dispatches through tb's handler arrays
// without owning them: a Register on the view copies them first, so tb
// and every other view of it never see the change. Dispatch through a
// view costs what it costs through tb. Every kernel of one shape
// installs a view of the same table (see InstallLinuxTable).
func (tb *SyscallTable) View() *SyscallTable {
	v := *tb
	v.shared = true
	return &v
}

// Shared reports whether tb is a View that has not registered since, so
// its handlers are still exactly those of the table it views.
func (tb *SyscallTable) Shared() bool { return tb.shared }

// own gives tb handler arrays of its own before a registration changes
// them.
func (tb *SyscallTable) own() {
	if !tb.shared {
		return
	}
	tb.dense = slices.Clone(tb.dense)
	tb.outliers = maps.Clone(tb.outliers)
	tb.shared = false
}

// Register installs a handler for a syscall number. On a View it first
// copies the handler arrays, so the table viewed is never mutated.
func (tb *SyscallTable) Register(num int, name string, h SyscallHandler) {
	tb.own()
	e := syscallEntry{h: h, name: name}
	if !isDense(num) {
		if tb.outliers == nil {
			tb.outliers = make(map[int]syscallEntry)
		}
		tb.outliers[num] = e
		return
	}
	if num >= len(tb.dense) {
		tb.dense = append(tb.dense, make([]syscallEntry, num+1-len(tb.dense))...)
	}
	tb.dense[num] = e
}

// Lookup returns the handler for num.
//
//hot:noalloc
func (tb *SyscallTable) Lookup(num int) (SyscallHandler, bool) {
	if uint(num) < uint(len(tb.dense)) {
		h := tb.dense[num].h
		return h, h != nil
	}
	e, ok := tb.outliers[num]
	return e.h, ok
}

// NameOf returns the registered name of a syscall number.
func (tb *SyscallTable) NameOf(num int) string {
	if uint(num) < uint(len(tb.dense)) && tb.dense[num].h != nil {
		return tb.dense[num].name
	}
	if e, ok := tb.outliers[num]; ok {
		return e.name
	}
	return fmt.Sprintf("sys_%d", num)
}

// Len returns the number of registered handlers.
func (tb *SyscallTable) Len() int {
	n := len(tb.outliers)
	for _, e := range tb.dense {
		if e.h != nil {
			n++
		}
	}
	return n
}

// Syscall is the kernel trap entry: every simulated user-space trap funnels
// through here. It charges entry/exit costs, performs Cider's per-entry
// persona check, dispatches through the calling thread's persona table, and
// delivers pending signals on the return path.
//
// Syscall only reads a (nil means no arguments). It copies a into the
// thread's argument slot for this nesting level, the simulation's
// copy_from_user, and the handler gets that slot: a translator that
// rewrites its arguments in place never reaches the caller's struct, and
// the caller's struct can live on its stack. The slot is cleared when the
// trap returns to its caller; an argless trap only zeroes the registers,
// since no handler writes the other fields (see SyscallHandler).
func (t *Thread) Syscall(num int, a *SyscallArgs) SyscallRet {
	k := t.k
	slot := t.sysArgs.push()
	if a != nil {
		*slot = *a
	} else {
		slot.I = [6]uint64{}
	}
	// The persona table is fetched once and reused for trace naming,
	// dispatch, and fault keying; persona cannot change between here and
	// dispatch (only the handler itself — set_persona — switches it).
	table := k.tables[t.Persona.Current()]
	// Trace bookkeeping observes virtual time but never charges it. The
	// persona and name are captured at entry: set_persona switches the
	// thread's persona mid-call, and attribution belongs to the table that
	// served the trap. exit/execve unwind the Proc instead of returning, so
	// they leave an enter record with no matching exit — as real ktrace does.
	tr := k.tracer
	var trStart time.Duration
	var trPersona persona.Kind
	var trName string
	if tr != nil {
		trStart = t.proc.Now()
		trPersona = t.Persona.Current()
		if table != nil {
			trName = table.NameOf(num)
		} else {
			trName = fmt.Sprintf("sys_%d", num)
		}
		tr.SyscallEnter(t.proc.Name(), t.proc.ID(), trPersona, num, trName, trStart)
	}
	// Entry costs are summed into one charge. The per-hop amounts are
	// unchanged — "extra persona checking and handling code run on every
	// syscall entry" (the 8.5% null-syscall overhead of Section 6.2) and the
	// table's trap-demux extra still accrue — but the scheduler sees one
	// Advance instead of three, one preemption checkpoint per trap side.
	// No state changes or trace emissions ever sat between these charges,
	// so every Proc's virtual clock (and every figure) is bit-identical.
	entryCost := k.costs.SyscallEntry
	if k.PersonaAware() {
		entryCost += k.costs.PersonaCheck
	}
	if table == nil {
		// No ABI provisioned for this persona on this kernel (e.g. an iOS
		// binary trapping into vanilla Linux).
		t.charge(entryCost + k.costs.SyscallExit)
		if tr != nil {
			tr.SyscallExit(t.proc.Name(), t.proc.ID(), trPersona, num, trName,
				int(ENOSYS), trStart, t.proc.Now())
		}
		t.releaseArgs(slot, a != nil)
		return SyscallRet{R0: ^uint64(0), Errno: ENOSYS}
	}
	t.charge(entryCost + table.EntryExtra)
	h, ok := table.Lookup(num)
	var ret SyscallRet
	injected := false
	if in := k.fault; in != nil && ok {
		// Crash injection first: an OpCrash rule keyed by the task's
		// executable path queues a fatal signal instead of running the
		// handler; the signal is delivered on this trap's return path
		// (checkSignals below), where the exception bridge and default
		// disposition apply as for any organic fault.
		if in.Has(fault.OpCrash) {
			if out, fire := in.Crash(t.proc.Now(), t.task.path); fire {
				if out.Delay > 0 {
					t.charge(out.Delay)
				}
				sig := out.Errno
				if sig <= 0 || sig >= nsig {
					sig = sigSEGV
				}
				t.sigPending = append(t.sigPending, sig)
				ret = SyscallRet{R0: ^uint64(0), Errno: EINTR}
				injected = true
			}
		}
		// Fault injection happens at dispatch, after entry costs: an
		// injected errno still pays the full trap cost (plus any modeled
		// latency spike), exactly like a real early-EINTR return would.
		// The "persona/name" decision key is only materialized when the
		// plan actually carries syscall rules; the common uninjected run
		// never concatenates strings here.
		if !injected && in.Has(fault.OpSyscall) {
			key := t.Persona.Current().String() + "/" + table.NameOf(num)
			if out, fire := in.Syscall(t.proc.Now(), key); fire {
				if out.Delay > 0 {
					t.charge(out.Delay)
				}
				if out.Errno != 0 {
					ret = SyscallRet{R0: ^uint64(0), Errno: Errno(out.Errno)}
					injected = true
				}
			}
		}
	}
	switch {
	case injected:
	case !ok:
		ret = SyscallRet{R0: ^uint64(0), Errno: ENOSYS}
	default:
		t.inSyscall = true
		ret = h(t, slot)
		t.inSyscall = false
	}
	// Exit costs batched the same way as entry costs.
	t.charge(table.ExitExtra + k.costs.SyscallExit)
	if ret.Errno != OK {
		// Post errno to the current persona's TLS area, in that persona's
		// own numbering.
		e := int(ret.Errno)
		if t.Persona.Current() == persona.IOS {
			e = int(ErrnoToXNU(ret.Errno))
		}
		t.Persona.CurrentTLS().Errno = e
	}
	// Signal delivery happens on the syscall return path, so its cost is
	// part of the trap the histogram attributes it to (lmbench's lat_sig
	// measures exactly this: kill + delivery in one round trip).
	t.checkSignals()
	if tr != nil {
		tr.SyscallExit(t.proc.Name(), t.proc.ID(), trPersona, num, trName,
			int(ret.Errno), trStart, t.proc.Now())
	}
	t.releaseArgs(slot, a != nil)
	return ret
}

// releaseArgs releases the innermost argument slot's level. A slot that
// was copied into is cleared, so it keeps no caller buffer alive; one that
// carried no arguments holds at most rewritten registers, which the next
// argless trap at this level zeroes.
func (t *Thread) releaseArgs(slot *SyscallArgs, copied bool) {
	if copied {
		*slot = SyscallArgs{}
	}
	t.sysArgs.pop()
}

// linuxTables holds the process's two Linux tables, built on first use:
// index 1 carries set_persona (a persona-aware kernel), index 0 does not.
// The handlers reach their kernel through the calling thread, never
// through the table, so one table serves every kernel of its shape.
var linuxTables = [2]func() *SyscallTable{
	sync.OnceValue(func() *SyscallTable { return linuxTable(false) }),
	sync.OnceValue(func() *SyscallTable { return linuxTable(true) }),
}

// InstallLinuxTable installs the native Linux syscall table for the
// Android persona, a View of the process's table for the kernel's
// persona awareness. Vanilla kernels install only this table.
func (k *Kernel) InstallLinuxTable() *SyscallTable {
	shape := 0
	if k.PersonaAware() {
		shape = 1
	}
	tb := linuxTables[shape]().View()
	k.SetSyscallTable(persona.Android, tb)
	return tb
}

// linuxTable builds a Linux syscall table, with set_persona when aware.
func linuxTable(aware bool) *SyscallTable {
	tb := NewSyscallTable("linux", []SyscallDef{
		{SysExit, "exit", func(t *Thread, a *SyscallArgs) SyscallRet {
			t.exitTask(int(a.I[0]))
			return SyscallRet{}
		}},
		{SysFork, "fork", func(t *Thread, a *SyscallArgs) SyscallRet {
			if a.ChildFn == nil {
				return SyscallRet{Errno: EINVAL}
			}
			pid, errno := t.forkInternal(a.ChildFn)
			return SyscallRet{R0: uint64(pid), Errno: errno}
		}},
		{SysRead, "read", func(t *Thread, a *SyscallArgs) SyscallRet {
			f, errno := t.task.fds.Get(int(a.I[0]))
			if errno != OK {
				return SyscallRet{Errno: errno}
			}
			t.charge(t.k.costs.ReadBase)
			n, errno := f.Read(t, a.Buf)
			return SyscallRet{R0: uint64(n), Errno: errno}
		}},
		{SysWrite, "write", func(t *Thread, a *SyscallArgs) SyscallRet {
			f, errno := t.task.fds.Get(int(a.I[0]))
			if errno != OK {
				return SyscallRet{Errno: errno}
			}
			t.charge(t.k.costs.WriteBase)
			n, errno := f.Write(t, a.Buf)
			return SyscallRet{R0: uint64(n), Errno: errno}
		}},
		{SysOpen, "open", func(t *Thread, a *SyscallArgs) SyscallRet {
			fd, errno := t.openInternal(a.Path, int(a.I[1]))
			return SyscallRet{R0: uint64(fd), Errno: errno}
		}},
		{SysClose, "close", func(t *Thread, a *SyscallArgs) SyscallRet {
			t.charge(t.k.costs.CloseBase)
			return SyscallRet{Errno: t.task.fds.Close(t, int(a.I[0]))}
		}},
		{SysCreat, "creat", func(t *Thread, a *SyscallArgs) SyscallRet {
			fd, errno := t.creatInternal(a.Path)
			return SyscallRet{R0: uint64(fd), Errno: errno}
		}},
		{SysUnlink, "unlink", func(t *Thread, a *SyscallArgs) SyscallRet {
			return SyscallRet{Errno: t.unlinkInternal(a.Path)}
		}},
		{SysExecve, "execve", func(t *Thread, a *SyscallArgs) SyscallRet {
			errno := t.execInternal(a.Path, a.Argv)
			return SyscallRet{Errno: errno} // reached only on failure
		}},
		{SysGetpid, "getpid", func(t *Thread, a *SyscallArgs) SyscallRet {
			//lint:allow chargecheck: getpid is the null syscall: its cost is exactly the dispatcher entry/exit charges (Fig. 5)
			return SyscallRet{R0: uint64(t.task.pid)}
		}},
		{SysGetppid, "getppid", func(t *Thread, a *SyscallArgs) SyscallRet {
			//lint:allow chargecheck: getppid is a null syscall like getpid: dispatcher entry/exit charges only
			return SyscallRet{R0: uint64(t.task.PPID())}
		}},
		{SysKill, "kill", func(t *Thread, a *SyscallArgs) SyscallRet {
			return SyscallRet{Errno: t.killInternal(int(a.I[0]), int(a.I[1]))}
		}},
		{SysPipe, "pipe", func(t *Thread, a *SyscallArgs) SyscallRet {
			r, w, errno := t.pipeInternal()
			return SyscallRet{R0: uint64(r), R1: uint64(w), Errno: errno}
		}},
		{SysDup, "dup", func(t *Thread, a *SyscallArgs) SyscallRet {
			fd, errno := t.task.fds.Dup(int(a.I[0]))
			return SyscallRet{R0: uint64(fd), Errno: errno}
		}},
		{SysIoctl, "ioctl", func(t *Thread, a *SyscallArgs) SyscallRet {
			f, errno := t.task.fds.Get(int(a.I[0]))
			if errno != OK {
				return SyscallRet{Errno: errno}
			}
			t.charge(t.k.costs.IoctlBase)
			r, errno := f.Ioctl(t, a.I[1], a.I[2])
			return SyscallRet{R0: r, Errno: errno}
		}},
		{SysSelect, "select", func(t *Thread, a *SyscallArgs) SyscallRet {
			if a.Select == nil {
				return SyscallRet{Errno: EINVAL}
			}
			res, errno := t.selectInternal(a.Select)
			ret := SyscallRet{Errno: errno, Select: res}
			if res != nil {
				ret.R0 = uint64(res.N())
			}
			return ret
		}},
		{SysRtSigaction, "rt_sigaction", func(t *Thread, a *SyscallArgs) SyscallRet {
			return SyscallRet{Errno: t.sigactionInternal(int(a.I[0]), a.Act)}
		}},
		{SysWait4, "wait4", func(t *Thread, a *SyscallArgs) SyscallRet {
			pid, status, errno := t.waitInternal(int(int64(a.I[0])))
			return SyscallRet{R0: uint64(pid), R1: uint64(status), Errno: errno}
		}},
		{SysSocketpair, "socketpair", func(t *Thread, a *SyscallArgs) SyscallRet {
			f1, f2, errno := t.socketpairInternal()
			return SyscallRet{R0: uint64(f1), R1: uint64(f2), Errno: errno}
		}},
		{SysGetrlimit, "getrlimit", func(t *Thread, a *SyscallArgs) SyscallRet {
			lim, errno := t.getrlimitInternal(int(a.I[0]))
			if errno != OK {
				return SyscallRet{Errno: errno}
			}
			return SyscallRet{R0: lim.Cur, R1: lim.Max}
		}},
		{SysSetrlimit, "setrlimit", func(t *Thread, a *SyscallArgs) SyscallRet {
			return SyscallRet{Errno: t.setrlimitInternal(int(a.I[0]), RLimit{Cur: a.I[1], Max: a.I[2]})}
		}},
	}...)
	if aware {
		tb.Register(SysSetPersona, "set_persona", sysSetPersona)
	}
	return tb
}

// sysSetPersona implements Cider's new set_persona syscall: switch the
// calling thread's kernel ABI personality and TLS area pointer
// (Section 4.3, component 2). Registered in every persona's table.
func sysSetPersona(t *Thread, a *SyscallArgs) SyscallRet {
	to := persona.Kind(a.I[0])
	if to < 0 || int(to) >= persona.NumKinds {
		return SyscallRet{Errno: EINVAL}
	}
	t.charge(t.k.costs.SetPersonaCost)
	prev := t.Persona.Switch(to)
	return SyscallRet{R0: uint64(prev)}
}

// openInternal resolves a path and produces a descriptor: regular files
// get an fsFile; device nodes dispatch to the device framework.
func (t *Thread) openInternal(path string, flags int) (int, Errno) {
	k := t.k
	t.charge(k.costs.OpenBase)
	node, err := k.root.Lookup(path)
	if err != nil {
		if _, missing := err.(*vfs.ErrNotFound); missing && flags&OCreat != 0 {
			return t.creatInternal(path)
		}
		return -1, ErrnoFromVFS(err)
	}
	if node.IsDir() {
		return -1, EISDIR
	}
	if node.Kind() == vfs.KindDevice {
		dev, ok := node.Dev().(Device)
		if !ok {
			return -1, EIO
		}
		f, errno := dev.Open(t)
		if errno != OK {
			return -1, errno
		}
		return t.task.fds.Alloc(f)
	}
	return t.task.fds.Alloc(&fsFile{node: node, k: k})
}

// OCreat is the open flag requesting creation.
const OCreat = 0x40 // Linux O_CREAT

// creatInternal creates a file (truncating an existing one) and opens it.
func (t *Thread) creatInternal(path string) (int, Errno) {
	k := t.k
	t.charge(k.costs.CreateBase)
	t.charge(k.device.Storage.CreateLatency)
	node, err := k.root.Create(path)
	if err != nil {
		if _, exists := err.(*vfs.ErrExists); !exists {
			return -1, ErrnoFromVFS(err)
		}
		n2, lerr := k.root.Lookup(path)
		if lerr != nil {
			return -1, ErrnoFromVFS(lerr)
		}
		if n2.IsDir() {
			return -1, EISDIR
		}
		n2.Truncate()
		return t.task.fds.Alloc(&fsFile{node: n2, k: k})
	}
	return t.task.fds.Alloc(&fsFile{node: node, k: k})
}

// unlinkInternal removes a file.
func (t *Thread) unlinkInternal(path string) Errno {
	k := t.k
	t.charge(k.costs.UnlinkBase)
	t.charge(k.device.Storage.DeleteLatency)
	if err := k.root.Remove(path); err != nil {
		return ErrnoFromVFS(err)
	}
	return OK
}
