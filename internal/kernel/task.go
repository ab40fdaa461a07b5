package kernel

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/mem"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
)

// taskState is a process lifecycle state.
type taskState int

const (
	taskRunning taskState = iota
	taskZombie
	taskReaped
)

// Task is a process: address space, descriptor table, threads, children.
type Task struct {
	pid    int
	parent *Task
	k      *Kernel

	children map[int]*Task
	mem      *mem.AddressSpace
	fds      *FDTable
	threads  map[int]*Thread
	nextTID  int

	// path and argv describe the current executable image.
	path string
	argv []string

	state      taskState
	exitStatus int
	// childEvents wakes the parent's wait4.
	childEvents *sim.WaitQueue

	// sigActions maps canonical (Linux) signal numbers to handlers.
	sigActions map[int]*SigAction

	// userData carries per-process user-space runtime state (libc atfork
	// and atexit handler lists, dyld's loaded-image table). The kernel
	// never interprets it.
	userData map[string]any

	// rlimits holds the POSIX resource limits, canonical numbering.
	// Inherited across fork, preserved across exec.
	rlimits [numRLimits]RLimit
}

// PID returns the process id.
func (tk *Task) PID() int { return tk.pid }

// PPID returns the parent process id (0 for init).
func (tk *Task) PPID() int {
	if tk.parent == nil {
		return 0
	}
	return tk.parent.pid
}

// Mem returns the task's address space.
func (tk *Task) Mem() *mem.AddressSpace { return tk.mem }

// FDs returns the descriptor table.
func (tk *Task) FDs() *FDTable { return tk.fds }

// Path returns the executable path.
func (tk *Task) Path() string { return tk.path }

// Argv returns the exec arguments.
func (tk *Task) Argv() []string { return tk.argv }

// ExitStatus returns the exit status (valid once the task is a zombie).
func (tk *Task) ExitStatus() int { return tk.exitStatus }

// Zombie reports whether the task has exited but not been reaped.
func (tk *Task) Zombie() bool { return tk.state == taskZombie }

// UserData returns the value stored under key by user-space runtimes.
func (tk *Task) UserData(key string) (any, bool) {
	v, ok := tk.userData[key]
	return v, ok
}

// SetUserData stores per-process user-space runtime state.
func (tk *Task) SetUserData(key string, v any) { tk.userData[key] = v }

// MainThread returns the lowest-numbered live thread.
func (tk *Task) MainThread() *Thread {
	var best *Thread
	for _, th := range tk.threads {
		if best == nil || th.tid < best.tid {
			best = th
		}
	}
	return best
}

// Threads returns the number of live threads.
func (tk *Task) Threads() int { return len(tk.threads) }

// Thread is a kernel thread with its own persona state and simulated
// execution context.
type Thread struct {
	tid  int
	task *Task
	k    *Kernel
	proc *sim.Proc

	// Persona is the thread's persona state: current persona plus TLS
	// areas for every persona (Section 4.3).
	Persona *persona.State

	// sigPending queues canonical signal numbers for this thread.
	sigPending []int
	// inSyscall marks the thread as blockable-in-kernel for EINTR wakeups.
	inSyscall bool

	// sysArgs holds the copied-in arguments of the thread's in-flight
	// traps and frames its in-flight CallFunc frames, one record per
	// nesting level (see slots).
	sysArgs slots[SyscallArgs]
	frames  slots[callFrame]
}

// TID returns the thread id (unique within the kernel).
func (t *Thread) TID() int { return t.tid }

// Task returns the owning process.
func (t *Thread) Task() *Task { return t.task }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.k }

// Proc returns the simulated execution context.
func (t *Thread) Proc() *sim.Proc { return t.proc }

// charge adds virtual time to the thread.
func (t *Thread) charge(d time.Duration) { t.proc.Advance(d) }

// Charge exposes cost charging to user-space runtimes (libc, dyld,
// libraries) that model their own compute.
func (t *Thread) Charge(d time.Duration) { t.charge(d) }

// Now returns the thread's virtual clock.
func (t *Thread) Now() time.Duration { return t.proc.Now() }

// newTask allocates a process shell (no threads yet) over the address
// space given: a fresh one for a new process, the parent's copy for a
// fork.
func (k *Kernel) newTask(parent *Task, space *mem.AddressSpace) *Task {
	tk := &Task{
		pid:         k.nextPID,
		parent:      parent,
		k:           k,
		children:    make(map[int]*Task),
		mem:         space,
		fds:         NewFDTable(),
		threads:     make(map[int]*Thread),
		childEvents: sim.NewWaitQueue("wait4"),
		sigActions:  make(map[int]*SigAction),
		userData:    make(map[string]any),
		rlimits:     defaultRLimits(),
	}
	// Route mapping requests through the fault + rlimit hook and footprint
	// changes into memorystatus (fault state is read dynamically, so
	// enabling faults after boot still covers existing tasks' children).
	// A forked space carries the parent's hooks; binding replaces them.
	k.bindMemHooks(tk)
	tk.fds.onLimit = k.countRlimitHit
	k.nextPID++
	k.tasks[tk.pid] = tk
	if parent != nil {
		parent.children[tk.pid] = tk
	}
	return tk
}

// newThread attaches a thread shell to a task; the caller provides the
// sim.Proc.
func (tk *Task) newThread(initial persona.Kind) *Thread {
	tk.nextTID++
	t := &Thread{
		tid:     tk.pid*1000 + tk.nextTID,
		task:    tk,
		k:       tk.k,
		Persona: persona.NewState(initial, uint64(tk.pid*1000+tk.nextTID)),
	}
	tk.threads[t.tid] = t
	return t
}

// StartProcess creates a new process running the executable at path and
// schedules it. It is the kernel-side of "launchd starts an app": no fork
// semantics, used for init-style process creation and tests. The returned
// task is scheduled but has not run yet.
func (k *Kernel) StartProcess(path string, argv []string) (*Task, error) {
	tk := k.newTask(nil, mem.NewAddressSpace())
	tk.path = path
	tk.argv = argv
	t := tk.newThread(k.NativePersona())
	t.proc = k.sim.Spawn(fmt.Sprintf("pid%d:%s", tk.pid, path), func(p *sim.Proc) {
		status := int(t.runExec(path, argv))
		t.exitTask(status)
	})
	return tk, nil
}

// SpawnThread creates an additional thread in the calling thread's task —
// the primitive behind pthread_create and Cider's eventpump thread
// (Section 5.2). The child inherits the caller's persona.
func (t *Thread) SpawnThread(name string, fn func(*Thread)) *Thread {
	nt := t.task.newThread(t.Persona.Current())
	nt.Persona = t.Persona.Clone(uint64(nt.tid))
	nt.proc = t.k.sim.Spawn(fmt.Sprintf("pid%d/%s", t.task.pid, name), func(p *sim.Proc) {
		fn(nt)
		delete(nt.task.threads, nt.tid)
	})
	return nt
}

// UserDataCloner lets user-space runtime state stored via SetUserData be
// deep-copied across fork; values without it are shared by reference.
type UserDataCloner interface {
	// CloneUserData returns the child process's copy.
	CloneUserData() any
}

// forkInternal implements the fork syscall: duplicate the address space
// (charging PTE copies), descriptor table, signal dispositions and persona
// state, then schedule the child running childFn. Go cannot return twice
// from one call, so the child body is passed as a closure — the libc
// wrapper preserves the POSIX calling convention for programs.
func (t *Thread) forkInternal(childFn func(*Thread)) (int, Errno) {
	k, tk := t.k, t.task
	costs := k.costs

	// Duplicate the page tables; this is the dominant fork cost for iOS
	// processes (90 MB of dylib mappings ≈ 23k PTEs ≈ 1 ms, §6.2). The
	// child task is built over the copy, and newTask re-binds its hooks so
	// rlimit checks and footprint attribution target the child. The copied
	// footprint needs no explicit adoption — memorystatus reads usage from
	// the spaces on demand. The resource limits themselves are inherited,
	// POSIX fork semantics.
	childMem, ptes := tk.mem.Fork()
	child := k.newTask(tk, childMem)
	child.path = tk.path
	child.argv = tk.argv
	child.rlimits = tk.rlimits
	t.charge(costs.ForkBase + time.Duration(ptes)*costs.PTECopy)

	// Cider initializes the child's Mach task port at fork ("some extra
	// work in Mach IPC initialization", §6.2) — negligible but real.
	if k.profile == ProfileCider {
		t.charge(costs.MachPortInit)
	}

	child.fds = tk.fds.Fork()
	for sig, act := range tk.sigActions {
		cp := *act
		child.sigActions[sig] = &cp
	}
	// User-space runtime state (libc handler lists, dyld image tables)
	// lives in the copied address space, so it survives fork; values that
	// implement UserDataCloner are deep-copied, others shared.
	for key, v := range tk.userData {
		if c, ok := v.(UserDataCloner); ok {
			child.userData[key] = c.CloneUserData()
		} else {
			child.userData[key] = v
		}
	}

	ct := child.newThread(t.Persona.Current())
	ct.Persona = t.Persona.Clone(uint64(ct.tid))
	ct.proc = k.sim.Spawn(fmt.Sprintf("pid%d:%s", child.pid, child.path), func(p *sim.Proc) {
		childFn(ct)
		// A child body that returns without exiting exits cleanly, the way
		// falling off main does.
		ct.exitTask(0)
	})
	return child.pid, OK
}

// runExec loads the binary at path and runs its entry function, returning
// the program's exit status. Called on a fresh process or from exec.
func (t *Thread) runExec(path string, argv []string) uint64 {
	entry, errno := t.loadImage(path, argv)
	if errno != OK {
		return 255
	}
	return entry(&prog.Call{Ctx: t})
}

// loadImage runs the binfmt chain for path and prepares the task's image.
func (t *Thread) loadImage(path string, argv []string) (prog.Func, Errno) {
	k := t.k
	node, err := k.root.Lookup(path)
	if err != nil {
		return nil, ErrnoFromVFS(err)
	}
	if node.IsDir() {
		return nil, EISDIR
	}
	data := node.Data()
	t.charge(k.device.Storage.ReadTime(int64(len(data))))

	t.task.path = path
	t.task.argv = argv
	for _, b := range k.binfmts {
		t.charge(k.costs.BinfmtProbe)
		entry, errno := b.Load(t, path, data, argv)
		if errno == ENOEXEC {
			continue // not this loader's format; try the next
		}
		if errno != OK {
			return nil, errno
		}
		return entry, OK
	}
	return nil, ENOEXEC
}

// execInternal implements execve: replace the image and run the new entry.
// On success it never returns — the new program runs and the process exits
// with its status. On failure the old image is untouched (as long as the
// failure happened before the point of no return, which the binfmt
// contract guarantees: loaders must not mutate the address space before
// validating the format).
func (t *Thread) execInternal(path string, argv []string) Errno {
	k := t.k
	t.charge(k.costs.ExecBase)
	// Validate path and format before destroying the old image, so a
	// failed exec returns to the caller with the process intact.
	node, err := k.root.Lookup(path)
	if err != nil {
		return ErrnoFromVFS(err)
	}
	if node.IsDir() {
		return EISDIR
	}
	recognized := false
	for _, b := range k.binfmts {
		if b.Recognize(node.Data()) {
			recognized = true
			break
		}
	}
	if !recognized {
		return ENOEXEC
	}
	// Point of no return: tear down the old image. A 90 MB iOS process
	// pays per-PTE teardown here, part of the cost of exec'ing out of an
	// iOS binary (§6.2).
	t.charge(time.Duration(t.task.mem.PTECount()) * k.costs.ExecTeardown)
	t.task.mem.UnmapAll()
	for key := range t.task.userData {
		delete(t.task.userData, key)
	}
	status := int(t.runExec(path, argv))
	t.exitTask(status)
	return OK // unreachable
}

// exitTask implements _exit for the calling thread's process: tear down
// descriptors and memory, make the task a zombie, wake wait4 parents, and
// terminate every thread.
func (t *Thread) exitTask(status int) {
	k, tk := t.k, t.task
	if tk.state != taskRunning {
		t.proc.Exit()
	}
	t.charge(k.costs.ExitBase)
	tk.fds.CloseAll(t)
	tk.mem.UnmapAll()
	for _, h := range k.exitHooks {
		h(t)
	}
	k.memstat.taskExit(tk)
	tk.state = taskZombie
	tk.exitStatus = status
	// Children that already died waiting for this parent's wait4 are
	// reaped here (lowest pid first, for determinism) — otherwise they
	// would linger as zombies forever. Running children are reparented to
	// nobody and self-reap on exit.
	pids := make([]int, 0, len(tk.children))
	for pid := range tk.children {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		c := tk.children[pid]
		if c.state == taskZombie {
			c.state = taskReaped
			delete(k.tasks, c.pid)
			continue
		}
		c.parent = nil
	}
	tk.children = make(map[int]*Task)
	if tk.parent != nil {
		// Signal the parent (SIGCHLD) and wake its wait4.
		k.postSignal(tk.parent, sigCHLD)
		tk.parent.childEvents.WakeAll(t.proc, sim.WakeNormal)
	} else {
		// No parent to reap us.
		tk.state = taskReaped
		delete(k.tasks, tk.pid)
	}
	delete(tk.threads, t.tid)
	// Terminate sibling threads.
	for _, other := range tk.threads {
		other.proc.Wake(other.proc, sim.WakeInterrupted)
		delete(tk.threads, other.tid)
	}
	t.proc.Exit()
}

// waitInternal implements wait4(pid): block until the chosen child (any
// child when pid <= 0) exits, then reap it and return its pid and status.
func (t *Thread) waitInternal(pid int) (int, int, Errno) {
	tk := t.task
	t.charge(t.k.costs.WaitBase)
	for {
		// With several simultaneous zombies the reaped child must not
		// depend on Go map iteration order: reap the lowest-pid zombie.
		found := false
		reap := -1
		for _, c := range tk.children {
			if pid > 0 && c.pid != pid {
				continue
			}
			found = true
			if c.state == taskZombie && (reap < 0 || c.pid < reap) {
				reap = c.pid
			}
		}
		if reap >= 0 {
			c := tk.children[reap]
			c.state = taskReaped
			delete(tk.children, c.pid)
			delete(t.k.tasks, c.pid)
			return c.pid, c.exitStatus, OK
		}
		if !found {
			return -1, 0, ECHILD
		}
		if tag := tk.childEvents.Wait(t.proc); tag == sim.WakeInterrupted {
			return -1, 0, EINTR
		}
	}
}
