package kernel

import "repro/internal/sim"

// pipeBuffer is the shared state of a pipe or one direction of a UNIX
// socket: a bounded byte queue with blocking reads/writes.
type pipeBuffer struct {
	data    []byte
	cap     int
	readers int
	writers int
	// queue is broadcast whenever readability/writability changes.
	queue *sim.WaitQueue
	// queues is the queue as a reusable one-element slice for PollQueues.
	queues []*sim.WaitQueue
}

const pipeCapacity = 65536 // Linux default pipe buffer

func newPipeBuffer(name string) *pipeBuffer {
	pb := &pipeBuffer{cap: pipeCapacity, queue: sim.NewWaitQueue(name)}
	pb.queues = []*sim.WaitQueue{pb.queue}
	return pb
}

func (pb *pipeBuffer) readable() bool { return len(pb.data) > 0 || pb.writers == 0 }
func (pb *pipeBuffer) writable() bool { return len(pb.data) < pb.cap || pb.readers == 0 }

func (pb *pipeBuffer) read(t *Thread, buf []byte) (int, Errno) {
	for len(pb.data) == 0 {
		if pb.writers == 0 {
			return 0, OK // EOF
		}
		if tag := pb.queue.Wait(t.proc); tag == sim.WakeInterrupted {
			return 0, EINTR
		}
	}
	n := copy(buf, pb.data)
	pb.data = pb.data[n:]
	pb.queue.WakeAll(t.proc, sim.WakeNormal)
	return n, OK
}

func (pb *pipeBuffer) write(t *Thread, buf []byte) (int, Errno) {
	if pb.readers == 0 {
		t.k.postSignal(t.task, sigPIPE)
		return 0, EPIPE
	}
	total := 0
	for len(buf) > 0 {
		for len(pb.data) >= pb.cap {
			// POSIX write(2): once any bytes have transferred, the call
			// reports the partial count as success; EPIPE/EINTR (and the
			// SIGPIPE that accompanies EPIPE) are raised only by a
			// subsequent write that transfers nothing.
			if pb.readers == 0 {
				if total > 0 {
					return total, OK
				}
				t.k.postSignal(t.task, sigPIPE)
				return 0, EPIPE
			}
			if tag := pb.queue.Wait(t.proc); tag == sim.WakeInterrupted {
				if total > 0 {
					return total, OK
				}
				return 0, EINTR
			}
		}
		n := pb.cap - len(pb.data)
		if n > len(buf) {
			n = len(buf)
		}
		pb.data = append(pb.data, buf[:n]...)
		buf = buf[n:]
		total += n
		pb.queue.WakeAll(t.proc, sim.WakeNormal)
	}
	return total, OK
}

// pipeEnd is one descriptor of a pipe (read or write end).
type pipeEnd struct {
	buf     *pipeBuffer
	k       *Kernel
	canRead bool
	// unixHop charges the AF_UNIX cost instead of the pipe cost.
	unix bool
}

// hopCost charges the one-way IPC latency. It is charged on the read
// side only, when data actually arrives: lmbench's lat_pipe measures a
// full round trip and its per-hop figure already includes both the
// writer's copy-in and the reader's wakeup, so charging the writer too
// would double-count the calibrated hop.
func (pe *pipeEnd) hopCost(t *Thread) {
	if pe.unix {
		t.charge(t.k.costs.UnixHop)
	} else {
		t.charge(t.k.costs.PipeHop)
	}
}

func (pe *pipeEnd) Read(t *Thread, buf []byte) (int, Errno) {
	if !pe.canRead {
		return 0, EBADF
	}
	n, errno := pe.buf.read(t, buf)
	if n > 0 {
		pe.hopCost(t)
	}
	return n, errno
}

func (pe *pipeEnd) Write(t *Thread, buf []byte) (int, Errno) {
	if pe.canRead {
		return 0, EBADF
	}
	return pe.buf.write(t, buf)
}

func (pe *pipeEnd) Close(t *Thread) Errno {
	if pe.canRead {
		pe.buf.readers--
	} else {
		pe.buf.writers--
	}
	if cur := pe.k.sim.Current(); cur != nil {
		pe.buf.queue.WakeAll(cur, sim.WakeNormal)
	}
	return OK
}

func (pe *pipeEnd) Poll() PollMask {
	var m PollMask
	if pe.canRead && pe.buf.readable() {
		m |= PollIn
	}
	if !pe.canRead && pe.buf.writable() {
		m |= PollOut
	}
	if pe.canRead && pe.buf.writers == 0 {
		m |= PollHup
	}
	return m
}

func (pe *pipeEnd) PollQueues(PollMask) []*sim.WaitQueue { return pe.buf.queues }

func (pe *pipeEnd) Ioctl(*Thread, uint64, uint64) (uint64, Errno) {
	return 0, ENOTTY
}

// pipeInternal implements pipe(2), returning (readFD, writeFD).
func (t *Thread) pipeInternal() (int, int, Errno) {
	pb := newPipeBuffer("pipe")
	pb.readers, pb.writers = 1, 1
	r := &pipeEnd{buf: pb, k: t.k, canRead: true}
	w := &pipeEnd{buf: pb, k: t.k, canRead: false}
	rfd, errno := t.task.fds.Alloc(r)
	if errno != OK {
		return -1, -1, errno
	}
	wfd, errno := t.task.fds.Alloc(w)
	if errno != OK {
		t.task.fds.Close(t, rfd)
		return -1, -1, errno
	}
	return rfd, wfd, OK
}

// sockEnd is one endpoint of a connected AF_UNIX stream socket: two pipe
// buffers, one per direction.
type sockEnd struct {
	k    *Kernel
	recv *pipeBuffer
	send *pipeBuffer
	// recvQ/sendQ/bothQ are cached PollQueues results: readability (and
	// hangup) is signalled on the recv buffer's queue, writability on the
	// send buffer's.
	recvQ []*sim.WaitQueue
	sendQ []*sim.WaitQueue
	bothQ []*sim.WaitQueue
}

func newSockEnd(k *Kernel, recv, send *pipeBuffer) *sockEnd {
	return &sockEnd{
		k: k, recv: recv, send: send,
		recvQ: []*sim.WaitQueue{recv.queue},
		sendQ: []*sim.WaitQueue{send.queue},
		bothQ: []*sim.WaitQueue{recv.queue, send.queue},
	}
}

func (se *sockEnd) Read(t *Thread, buf []byte) (int, Errno) {
	n, errno := se.recv.read(t, buf)
	if n > 0 {
		t.charge(t.k.costs.UnixHop)
	}
	return n, errno
}

func (se *sockEnd) Write(t *Thread, buf []byte) (int, Errno) {
	return se.send.write(t, buf)
}

func (se *sockEnd) Close(t *Thread) Errno {
	se.recv.readers--
	se.send.writers--
	if cur := se.k.sim.Current(); cur != nil {
		se.recv.queue.WakeAll(cur, sim.WakeNormal)
		se.send.queue.WakeAll(cur, sim.WakeNormal)
	}
	return OK
}

func (se *sockEnd) Poll() PollMask {
	var m PollMask
	if se.recv.readable() {
		m |= PollIn
	}
	if se.send.writable() {
		m |= PollOut
	}
	if se.recv.writers == 0 {
		m |= PollHup
	}
	return m
}

// PollQueues picks queues by interest. The recv and send directions of a
// socket live in different buffers, so a write-selector must wait on the
// send buffer's queue — a reader draining the peer broadcasts there. (An
// earlier version returned only the recv queue, leaving write-selectors
// unwakeable; see TestSelectWritableSocket.) Read-interest selectors
// still wait only on the recv queue, so they see no extra wakeups.
func (se *sockEnd) PollQueues(interest PollMask) []*sim.WaitQueue {
	switch {
	case interest&PollOut == 0:
		return se.recvQ
	case interest&(PollIn|PollHup) == 0:
		return se.sendQ
	}
	return se.bothQ
}

func (se *sockEnd) Ioctl(*Thread, uint64, uint64) (uint64, Errno) {
	return 0, ENOTTY
}

// socketpairInternal implements socketpair(AF_UNIX, SOCK_STREAM).
func (t *Thread) socketpairInternal() (int, int, Errno) {
	ab := newPipeBuffer("unix-a2b")
	ba := newPipeBuffer("unix-b2a")
	ab.readers, ab.writers = 1, 1
	ba.readers, ba.writers = 1, 1
	a := newSockEnd(t.k, ba, ab)
	b := newSockEnd(t.k, ab, ba)
	afd, errno := t.task.fds.Alloc(a)
	if errno != OK {
		return -1, -1, errno
	}
	bfd, errno := t.task.fds.Alloc(b)
	if errno != OK {
		t.task.fds.Close(t, afd)
		return -1, -1, errno
	}
	return afd, bfd, OK
}
