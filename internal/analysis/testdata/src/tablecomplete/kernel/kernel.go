// Fixture for tablecomplete: syscall-table block coverage, errno-map
// completeness and injectivity, and signal-map bijectivity.
package kernel

// Errno is the canonical (Linux-numbered) error type.
type Errno int

// Declared errno surface. ENOENT is deliberately missing from the map
// below; EDEADLK collides with EAGAIN's mapped value.
const (
	EPERM   Errno = 1
	ENOENT  Errno = 2 // want `tablecomplete: errno ENOENT is declared but missing from linuxToXNUErrno`
	EAGAIN  Errno = 11
	EDEADLK Errno = 35
)

var linuxToXNUErrno = map[Errno]int{ // want `tablecomplete: errno translation collision: EAGAIN and EDEADLK both map to XNU errno 35`
	EPERM:   1,
	EAGAIN:  35,
	EDEADLK: 35,
}

const nsig = 5

// The effective translation must be a bijection on [1, 5): entry 3 maps
// out of range, key 9 is out of range, and canonical 1 and 4 collide on 2.
var linuxToXNUSignal = map[int]int{ // want `tablecomplete: signal translation collision: canonical 1 and 4 both map to XNU signal 2`
	1: 2,
	2: 1,
	3: 7, // want `tablecomplete: signal map value 7 \(for canonical 3\) is outside the XNU range \[1, 5\)`
	4: 2,
	9: 1, // want `tablecomplete: signal map key 9 is outside the canonical range \[1, 5\)`
}

// SyscallTable is the dispatch table stand-in.
type SyscallTable struct{ names map[int]string }

// Register installs a handler for a syscall number.
func (t *SyscallTable) Register(num int, name string, h func()) {
	if t.names == nil {
		t.names = map[int]string{}
	}
	t.names[num] = name
}

// SyscallDef is a definition-list entry: a table built from a list
// registers through these literals.
type SyscallDef struct {
	Num  int
	Name string
	H    func()
}

// NewSyscallTable builds a table from its definition list.
func NewSyscallTable(defs ...SyscallDef) *SyscallTable {
	tb := &SyscallTable{}
	for _, d := range defs {
		tb.Register(d.Num, d.Name, d.H)
	}
	return tb
}

// This block registers only through definition entries (one positional,
// one keyed); SysMachMsg is missing from the list.
const (
	SysMachReplyPort = -26
	SysTaskSelf      = -28
	SysMachMsg       = -31 // want `tablecomplete: syscall number SysMachMsg is declared in a registered table's const block but never registered`
)

var machTable = NewSyscallTable([]SyscallDef{
	{SysMachReplyPort, "mach_reply_port", func() {}},
	{Num: SysTaskSelf, Name: "task_self", H: func() {}},
}...)

// This block contributes numbers to a registered table, so every member
// must be registered: SysDup is the missing-dup divergence shape.
const (
	SysRead  = 0
	SysWrite = 1
	SysDup   = 2 // want `tablecomplete: syscall number SysDup is declared in a registered table's const block but never registered`
)

// Flag bits register nothing, so the block is not a table and is exempt.
const (
	FlagCloexec  = 1
	FlagNonblock = 2
)

func install(tb *SyscallTable) {
	tb.Register(SysRead, "read", func() {})
	tb.Register(SysWrite, "write", func() {})
	_ = FlagCloexec | FlagNonblock
}
