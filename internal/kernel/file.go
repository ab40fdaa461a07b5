package kernel

import (
	"repro/internal/sim"
	"repro/internal/vfs"
)

// PollMask reports descriptor readiness for select/poll.
type PollMask uint8

const (
	// PollIn means a read would not block.
	PollIn PollMask = 1 << iota
	// PollOut means a write would not block.
	PollOut
	// PollHup means the peer closed.
	PollHup
)

// File is an open file description. Read and Write may block (park the
// calling thread); Poll must not.
type File interface {
	// Read transfers up to len(buf) bytes into buf.
	Read(t *Thread, buf []byte) (int, Errno)
	// Write transfers buf.
	Write(t *Thread, buf []byte) (int, Errno)
	// Close releases the description (called once, when the last fd drops).
	Close(t *Thread) Errno
	// Poll reports current readiness.
	Poll() PollMask
	// PollQueues returns the wait queues broadcast when readiness could
	// change for the given interest set (PollIn, PollOut, or both), or nil
	// for always-ready files. Files with direction-split buffering (UNIX
	// sockets) return different queues for read and write interest; a
	// selector must enqueue on every returned queue.
	PollQueues(interest PollMask) []*sim.WaitQueue
	// Ioctl performs a device-specific operation.
	Ioctl(t *Thread, req, arg uint64) (uint64, Errno)
}

// FDTable maps small integers to open files, with POSIX lowest-free
// allocation semantics. The limit is the owning task's RLIMIT_NOFILE soft
// value: no descriptor number at or above it is ever handed out, so
// lowering the limit below already-open descriptors affects only new
// allocations — Linux semantics.
type FDTable struct {
	files []*openFile
	limit int
	// onLimit, when non-nil, observes every EMFILE rejection (the kernel
	// wires it to the rlimit-enforcement counter).
	onLimit func()
}

// openFile is one table slot; refs supports dup and fork sharing.
type openFile struct {
	f    File
	refs int
}

// DefaultFDLimit matches a typical mobile RLIMIT_NOFILE soft limit.
const DefaultFDLimit = 1024

// NewFDTable creates an empty descriptor table.
func NewFDTable() *FDTable {
	return &FDTable{limit: DefaultFDLimit}
}

// Limit returns the descriptor limit (RLIMIT_NOFILE soft value).
func (ft *FDTable) Limit() int { return ft.limit }

// SetLimit applies a new RLIMIT_NOFILE soft value. Descriptors already
// open above the new limit stay open.
func (ft *FDTable) SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	ft.limit = n
}

// emfile rejects an allocation that would violate the limit.
func (ft *FDTable) emfile() (int, Errno) {
	if ft.onLimit != nil {
		ft.onLimit()
	}
	return -1, EMFILE
}

// Alloc installs f at the lowest free descriptor.
func (ft *FDTable) Alloc(f File) (int, Errno) {
	for i, slot := range ft.files {
		if slot == nil {
			if i >= ft.limit {
				// Free slots above a lowered limit are out of bounds.
				return ft.emfile()
			}
			ft.files[i] = &openFile{f: f, refs: 1}
			return i, OK
		}
	}
	if len(ft.files) >= ft.limit {
		return ft.emfile()
	}
	ft.files = append(ft.files, &openFile{f: f, refs: 1})
	return len(ft.files) - 1, OK
}

// Get returns the file at fd.
func (ft *FDTable) Get(fd int) (File, Errno) {
	if fd < 0 || fd >= len(ft.files) || ft.files[fd] == nil {
		return nil, EBADF
	}
	return ft.files[fd].f, OK
}

// Close drops descriptor fd, closing the file when the last reference goes.
func (ft *FDTable) Close(t *Thread, fd int) Errno {
	if fd < 0 || fd >= len(ft.files) || ft.files[fd] == nil {
		return EBADF
	}
	slot := ft.files[fd]
	ft.files[fd] = nil
	slot.refs--
	if slot.refs == 0 {
		return slot.f.Close(t)
	}
	return OK
}

// Dup duplicates fd to a new descriptor sharing the description.
func (ft *FDTable) Dup(fd int) (int, Errno) {
	if fd < 0 || fd >= len(ft.files) || ft.files[fd] == nil {
		return -1, EBADF
	}
	slot := ft.files[fd]
	for i, s := range ft.files {
		if s == nil {
			if i >= ft.limit {
				return ft.emfile()
			}
			ft.files[i] = slot
			slot.refs++
			return i, OK
		}
	}
	if len(ft.files) >= ft.limit {
		return ft.emfile()
	}
	ft.files = append(ft.files, slot)
	slot.refs++
	return len(ft.files) - 1, OK
}

// Fork clones the table for a child process: descriptors share the
// underlying open file descriptions, as POSIX fork requires, and the
// limit is inherited alongside the task's RLIMIT_NOFILE.
func (ft *FDTable) Fork() *FDTable {
	nt := &FDTable{limit: ft.limit, onLimit: ft.onLimit, files: make([]*openFile, len(ft.files))}
	for i, slot := range ft.files {
		if slot != nil {
			nt.files[i] = slot
			slot.refs++
		}
	}
	return nt
}

// CloseAll releases every descriptor (exit).
func (ft *FDTable) CloseAll(t *Thread) {
	for fd := range ft.files {
		if ft.files[fd] != nil {
			ft.Close(t, fd)
		}
	}
}

// Count returns the number of open descriptors.
func (ft *FDTable) Count() int {
	n := 0
	for _, s := range ft.files {
		if s != nil {
			n++
		}
	}
	return n
}

// fsFile is a regular file backed by a vfs node, charging storage-device
// time for data transfer.
type fsFile struct {
	node *vfs.Node
	pos  int64
	k    *Kernel
}

func (f *fsFile) Read(t *Thread, buf []byte) (int, Errno) {
	if f.pos >= f.node.Size() {
		return 0, OK // EOF
	}
	n := f.node.ReadAt(buf, f.pos)
	f.pos += int64(n)
	t.charge(f.k.device.Storage.ReadTime(int64(n)))
	return n, OK
}

func (f *fsFile) Write(t *Thread, buf []byte) (int, Errno) {
	f.pos = f.node.WriteData(f.pos, buf)
	t.charge(f.k.device.Storage.WriteTime(int64(len(buf))))
	return len(buf), OK
}

func (f *fsFile) Close(*Thread) Errno                  { return OK }
func (f *fsFile) Poll() PollMask                       { return PollIn | PollOut }
func (f *fsFile) PollQueues(PollMask) []*sim.WaitQueue { return nil }
func (f *fsFile) Ioctl(*Thread, uint64, uint64) (uint64, Errno) {
	return 0, ENOTTY
}

// nullFile is /dev/null: reads EOF, writes discard.
type nullFile struct{}

func (nullFile) Read(*Thread, []byte) (int, Errno) { return 0, OK }
func (nullFile) Write(t *Thread, b []byte) (int, Errno) {
	return len(b), OK
}
func (nullFile) Close(*Thread) Errno                  { return OK }
func (nullFile) Poll() PollMask                       { return PollIn | PollOut }
func (nullFile) PollQueues(PollMask) []*sim.WaitQueue { return nil }
func (nullFile) Ioctl(*Thread, uint64, uint64) (uint64, Errno) {
	return 0, ENOTTY
}

// zeroFile is /dev/zero: reads zeros, writes discard.
type zeroFile struct{}

func (zeroFile) Read(t *Thread, b []byte) (int, Errno) {
	for i := range b {
		b[i] = 0
	}
	return len(b), OK
}
func (zeroFile) Write(t *Thread, b []byte) (int, Errno) { return len(b), OK }
func (zeroFile) Close(*Thread) Errno                    { return OK }
func (zeroFile) Poll() PollMask                         { return PollIn | PollOut }
func (zeroFile) PollQueues(PollMask) []*sim.WaitQueue   { return nil }
func (zeroFile) Ioctl(*Thread, uint64, uint64) (uint64, Errno) {
	return 0, ENOTTY
}

// NullDevice is /dev/null as a kernel device.
type NullDevice struct{}

// DevName implements Device.
func (NullDevice) DevName() string { return "null" }

// Open implements Device.
func (NullDevice) Open(*Thread) (File, Errno) { return nullFile{}, OK }

// ZeroDevice is /dev/zero as a kernel device.
type ZeroDevice struct{}

// DevName implements Device.
func (ZeroDevice) DevName() string { return "zero" }

// Open implements Device.
func (ZeroDevice) Open(*Thread) (File, Errno) { return zeroFile{}, OK }
