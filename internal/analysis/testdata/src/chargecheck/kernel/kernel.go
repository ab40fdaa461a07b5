// Stand-in for the repo's internal/kernel package: the syscall table shape
// chargecheck keys handler registration on.
package kernel

import "chargecheck/sim"

type Errno int

type SyscallRet struct {
	R0    uint64
	R1    uint64
	Errno Errno
}

type Thread struct{ proc *sim.Proc }

func (t *Thread) Proc() *sim.Proc { return t.proc }
func (t *Thread) Charge(d int64)  { t.proc.Advance(d) }
func (t *Thread) PID() int        { return 7 }

type SyscallHandler func(t *Thread) SyscallRet

type SyscallTable struct{ h map[int]SyscallHandler }

func (tb *SyscallTable) Register(num int, name string, h SyscallHandler) {
	tb.h[num] = h
}

// SyscallDef is a definition-list entry; NewSyscallTable registers each.
type SyscallDef struct {
	Num  int
	Name string
	H    SyscallHandler
}

func NewSyscallTable(defs ...SyscallDef) *SyscallTable {
	tb := &SyscallTable{h: map[int]SyscallHandler{}}
	for _, d := range defs {
		tb.Register(d.Num, d.Name, d.H)
	}
	return tb
}

// Hooks mimics the dyld atexit/atfork registration points.
type Hooks struct{ exit []func(*Thread) }

func (h *Hooks) AtExit(f func(*Thread)) { h.exit = append(h.exit, f) }

// Kernel mimics the exception-bridge registration point.
type Kernel struct{ bridge func(*Thread, int) bool }

func (k *Kernel) SetExceptionBridge(b func(*Thread, int) bool) { k.bridge = b }

// Task and Memorystatus mimic the memory-pressure registration point.
type Task struct{ pid int }

type Memorystatus struct{ handlers []func(level int) }

func (ms *Memorystatus) OnPressure(tk *Task, fn func(level int)) {
	ms.handlers = append(ms.handlers, fn)
}
