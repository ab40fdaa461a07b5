// Package xnu contains the foreign (XNU) kernel subsystems that Cider
// duct-tapes into the domestic Linux kernel (Section 4.2): the Mach IPC
// subsystem — ports, rights, message queues, out-of-line memory, port sets
// — and the kernel half of iOS pthread support (psynch).
//
// This code is "foreign zone" code: it calls only the duct tape adaptation
// surface (ducttape.Env — XNU's lck_mtx/kalloc/wait/wakeup APIs), never
// domestic kernel internals directly. Units() declares the compilation-unit
// symbol graph that ducttape.Link validates at install time, reproducing
// the three-zone discipline. One deliberate deviation, as in the paper:
// XNU's recursive message queuing structures are "disallowed in the Linux
// kernel" and were rewritten as flat queues (ducttape.Queue) here too.
package xnu

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ducttape"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// KernReturn is a Mach kern_return_t / mach_msg_return_t.
type KernReturn uint32

// Mach return codes (mach/kern_return.h, mach/message.h).
const (
	// KernSuccess is KERN_SUCCESS.
	KernSuccess KernReturn = 0
	// KernNoSpace is KERN_NO_SPACE.
	KernNoSpace KernReturn = 3
	// KernInvalidName is KERN_INVALID_NAME.
	KernInvalidName KernReturn = 15
	// KernInvalidRight is KERN_INVALID_RIGHT.
	KernInvalidRight KernReturn = 17
	// MachSendInvalidDest is MACH_SEND_INVALID_DEST.
	MachSendInvalidDest KernReturn = 0x10000003
	// MachSendTimedOut is MACH_SEND_TIMED_OUT.
	MachSendTimedOut KernReturn = 0x10000004
	// MachSendInterrupted is MACH_SEND_INTERRUPTED: a software interrupt
	// (signal) woke the sender while it was blocked at the queue limit.
	MachSendInterrupted KernReturn = 0x10000007
	// MachRcvTooLarge is MACH_RCV_TOO_LARGE.
	MachRcvTooLarge KernReturn = 0x10004004
	// MachRcvTimedOut is MACH_RCV_TIMED_OUT.
	MachRcvTimedOut KernReturn = 0x10004003
	// MachRcvInterrupted is MACH_RCV_INTERRUPTED.
	MachRcvInterrupted KernReturn = 0x10004005
	// MachRcvPortDied is MACH_RCV_PORT_DIED.
	MachRcvPortDied KernReturn = 0x10004010
)

// PortName is a task-local Mach port name (mach_port_name_t).
type PortName uint32

// PortNull is MACH_PORT_NULL.
const PortNull PortName = 0

// BootstrapName is the well-known name every space binds to the bootstrap
// port (launchd's name server), the way task special ports work on iOS.
const BootstrapName PortName = 0x103

// RightType is a port right disposition.
type RightType int

const (
	// RightReceive is MACH_PORT_RIGHT_RECEIVE.
	RightReceive RightType = iota
	// RightSend is MACH_PORT_RIGHT_SEND.
	RightSend
	// RightSendOnce is MACH_PORT_RIGHT_SEND_ONCE.
	RightSendOnce
)

// Port is a Mach port: a kernel message queue with a single receiver.
type Port struct {
	id     uint64
	msgs   ducttape.Queue[*Message]
	qlimit int
	dead   bool
	// recvWait parks receivers; sendWait parks senders at queue limit.
	recvWait *sim.WaitQueue
	sendWait *sim.WaitQueue
	// set is the port set this port belongs to, if any.
	set *PortSet
	// deadNameNotify, when non-nil, receives a MsgDeadNameNotification
	// when this port dies (mach_port_request_notification).
	deadNameNotify *Port
}

// MsgDeadNameNotification is the msgh_id of a dead-name notification
// (MACH_NOTIFY_DEAD_NAME).
const MsgDeadNameNotification int32 = 0110

// ID returns the kernel-global port id (diagnostics).
func (p *Port) ID() uint64 { return p.id }

// Dead reports whether the port has been destroyed (launchd uses this to
// prune stale service registrations on lookup).
func (p *Port) Dead() bool { return p.dead }

// defaultQLimit is MACH_PORT_QLIMIT_DEFAULT.
const defaultQLimit = 5

// CarriedRight is a port right travelling inside a message.
type CarriedRight struct {
	// Port is the right's target.
	Port *Port
	// Type is the disposition moved (send / send-once).
	Type RightType
}

// Message is a Mach message (mach_msg_header_t + body).
type Message struct {
	// ID is msgh_id, the operation selector.
	ID int32
	// Body is the inline payload.
	Body []byte
	// Reply carries the reply-port right (msgh_local_port at send time);
	// the receiver sees it as ReplyName in its own space.
	Reply *CarriedRight
	// ReplyName is set on receive: the reply right's name in the
	// receiver's space.
	ReplyName PortName
	// Rights are additional carried port rights (port descriptors).
	Rights []CarriedRight
	// RightNames mirrors Rights on receive.
	RightNames []PortName
	// OOL is out-of-line memory: zero-copy page transfers, the mechanism
	// IOSurface uses to share graphics memory (Section 5.3).
	OOL []*mem.Backing
}

// Size returns the message's transfer size (inline body + descriptors).
func (m *Message) Size() int {
	n := len(m.Body) + 24 // header
	n += 12 * len(m.Rights)
	n += 12 * len(m.OOL)
	return n
}

// right is one entry in a task's IPC space.
type right struct {
	port *Port
	typ  RightType
	refs int
	// freeNext chains recycled rights on the owning Space's freelist.
	freeNext *right
}

// Space is a task's port name space (ipc_space_t).
type Space struct {
	task     *kernel.Task
	names    map[PortName]*right
	nextName PortName
	// sendNames indexes the name each port's send right was last
	// inserted under, so coalescing needs no scan of names. Entries go
	// stale when a name is deallocated; insert checks each hit against
	// names, so no removal path has to maintain the index.
	sendNames map[*Port]PortName
	// free heads the recycled-right chain. Every message that carries a
	// reply port or a port right inserts a right into the receiver's space
	// and most are deallocated one RPC later, so without recycling this is
	// a per-message heap allocation (same pattern as the WaitQueue waiter
	// pool in internal/sim/waitq.go).
	free *right
}

// Names returns the number of live names (diagnostics).
func (s *Space) Names() int { return len(s.names) }

// newRight takes a right from the freelist, refilling from the heap only
// when it is empty.
//
//hot:noalloc
func (s *Space) newRight(p *Port, t RightType) *right {
	r := s.free
	if r == nil {
		//lint:allow hotalloc: freelist refill — steady state recycles
		r = &right{}
	} else {
		s.free = r.freeNext
	}
	r.port, r.typ, r.refs, r.freeNext = p, t, 1, nil
	return r
}

// freeRight returns a right removed from the name table to the freelist.
// Callers must not retain the pointer past this call.
//
//hot:noalloc
func (s *Space) freeRight(r *right) {
	r.port = nil
	r.freeNext = s.free
	s.free = r
}

// insert adds a right under a fresh name.
func (s *Space) insert(p *Port, t RightType) PortName {
	// Coalesce send rights to the same port under one name, as Mach does.
	if t == RightSend {
		if n, ok := s.sendNames[p]; ok {
			if r := s.names[n]; r != nil && r.port == p && r.typ == RightSend {
				r.refs++
				return n
			}
		}
	}
	n := s.nextName
	s.nextName += 4 // Mach names stride by 4 (index<<2 | gen)
	s.bind(n, p, t)
	return n
}

// bind puts a new right under name n, indexing it if it is a send right.
func (s *Space) bind(n PortName, p *Port, t RightType) {
	s.names[n] = s.newRight(p, t)
	if t == RightSend {
		s.sendNames[p] = n
	}
}

// IPC is the duct-taped Mach IPC subsystem instance living inside the
// domestic kernel. It is registered as the kernel extension "mach_ipc".
type IPC struct {
	env    *ducttape.Env
	k      *kernel.Kernel
	lock   *ducttape.LckMtx
	spaces map[*kernel.Task]*Space
	nextID uint64
	// bootstrap is the port every new space binds at BootstrapName.
	bootstrap *Port

	// taskExc maps tasks to their task-level exception port; hostExc is
	// the host-level exception port (crashreporterd). See exception.go.
	taskExc map[*kernel.Task]*Port
	hostExc *Port

	// Cost model: fixed per-message kernel path plus a per-byte copy term.
	msgBase    time.Duration
	msgPerByte time.Duration
	portAlloc  time.Duration

	// stats
	sent, received uint64
}

// ExtensionName keys the IPC instance in the kernel extension table.
const ExtensionName = "mach_ipc"

// InstallIPC duct-tapes the Mach IPC subsystem into the kernel: validates
// the unit graph under the three-zone rules, then registers the subsystem
// as a kernel extension.
func InstallIPC(k *kernel.Kernel, env *ducttape.Env) (*IPC, error) {
	if err := linkAllUnits(); err != nil {
		return nil, err
	}
	cpu := k.Device().CPU
	ipc := &IPC{
		env:        env,
		k:          k,
		lock:       env.NewLckMtx("ipc_space"),
		spaces:     make(map[*kernel.Task]*Space),
		taskExc:    make(map[*kernel.Task]*Port),
		nextID:     1,
		msgBase:    cpu.Cycles(3900),
		msgPerByte: cpu.Cycles(0.6),
		portAlloc:  cpu.Cycles(1700),
	}
	k.SetExtension(ExtensionName, ipc)
	// Fatal faults on iOS-persona threads surface as Mach exceptions
	// before their Unix disposition runs (see exception.go).
	k.SetExceptionBridge(func(t *kernel.Thread, sig int) bool {
		return ipc.DeliverException(t, sig)
	})
	// Tear down the exiting task's port space — receive rights die with
	// their task, exactly as XNU reaps an ipc_space at task termination.
	// Without this, every exited process leaks its Space and its ports'
	// blocked peers park forever.
	k.OnTaskExit(ipc.taskExit)
	return ipc, nil
}

// FromKernel fetches the installed IPC subsystem.
func FromKernel(k *kernel.Kernel) (*IPC, bool) {
	v, ok := k.Extension(ExtensionName)
	if !ok {
		return nil, false
	}
	ipc, ok := v.(*IPC)
	return ipc, ok
}

// Stats reports (sent, received) message counts.
func (ipc *IPC) Stats() (uint64, uint64) { return ipc.sent, ipc.received }

// SpaceFor returns (creating on demand) a task's IPC space.
func (ipc *IPC) SpaceFor(tk *kernel.Task) *Space {
	s, ok := ipc.spaces[tk]
	if !ok {
		s = &Space{task: tk, names: make(map[PortName]*right), sendNames: make(map[*Port]PortName), nextName: 0x207}
		if ipc.bootstrap != nil {
			s.bind(BootstrapName, ipc.bootstrap, RightSend)
		}
		ipc.spaces[tk] = s
	}
	return s
}

// SetBootstrapPort designates the port bound at BootstrapName in every
// space — launchd calls this once at boot (task_set_special_port).
func (ipc *IPC) SetBootstrapPort(p *Port) {
	ipc.bootstrap = p
	for _, s := range ipc.spaces {
		if _, ok := s.names[BootstrapName]; !ok {
			s.bind(BootstrapName, p, RightSend)
		}
	}
}

// resolve returns the right behind a name in the calling task's space.
func (ipc *IPC) resolve(t *kernel.Thread, name PortName) (*right, KernReturn) {
	s := ipc.SpaceFor(t.Task())
	r, ok := s.names[name]
	if !ok {
		return nil, KernInvalidName
	}
	return r, KernSuccess
}

// PortAllocate is mach_port_allocate(MACH_PORT_RIGHT_RECEIVE): create a
// port and return its receive-right name.
func (ipc *IPC) PortAllocate(t *kernel.Thread) (PortName, KernReturn) {
	t.Charge(ipc.portAlloc)
	ipc.lock.Lock(t)
	defer ipc.lock.Unlock(t)
	p := &Port{
		id:       ipc.nextID,
		qlimit:   defaultQLimit,
		recvWait: sim.NewWaitQueue("mach_rcv"),
		sendWait: sim.NewWaitQueue("mach_snd"),
	}
	ipc.nextID++
	return ipc.SpaceFor(t.Task()).insert(p, RightReceive), KernSuccess
}

// PortDestroy is mach_port_destroy on a receive right: the port dies,
// blocked senders/receivers fail, and any registered dead-name
// notification fires.
func (ipc *IPC) PortDestroy(t *kernel.Thread, name PortName) KernReturn {
	r, kr := ipc.resolve(t, name)
	if kr != KernSuccess {
		return kr
	}
	if r.typ != RightReceive {
		return KernInvalidRight
	}
	s := ipc.spaces[t.Task()]
	delete(s.names, name)
	ipc.destroyPort(t.Proc(), r.port)
	s.freeRight(r)
	return KernSuccess
}

// destroyPort kills a port: mark dead, drain queued messages, fail blocked
// senders/receivers, and fire any dead-name notification.
func (ipc *IPC) destroyPort(waker *sim.Proc, p *Port) {
	if p.dead {
		return
	}
	p.dead = true
	for p.msgs.Len() > 0 {
		p.msgs.Dequeue()
	}
	p.recvWait.WakeAll(waker, sim.WakeNormal)
	p.sendWait.WakeAll(waker, sim.WakeNormal)
	if n := p.deadNameNotify; n != nil && !n.dead && n.msgs.Len() < n.qlimit {
		n.msgs.Enqueue(&Message{ID: MsgDeadNameNotification, Body: portIDBytes(p.id)})
		if n.set != nil {
			n.set.wait.WakeOne(waker, sim.WakeNormal)
		}
		n.recvWait.WakeOne(waker, sim.WakeNormal)
	}
}

// taskExit reaps the exiting task's IPC space (registered via OnTaskExit):
// receive rights destroy their ports, send rights are dropped. Names are
// processed in sorted order so teardown wakes blocked peers in a
// deterministic sequence.
func (ipc *IPC) taskExit(t *kernel.Thread) {
	s, ok := ipc.spaces[t.Task()]
	if !ok {
		return
	}
	names := make([]PortName, 0, len(s.names))
	for n := range s.names {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, n := range names {
		r := s.names[n]
		delete(s.names, n)
		if r.typ == RightReceive {
			ipc.destroyPort(t.Proc(), r.port)
		}
	}
	delete(ipc.spaces, t.Task())
	delete(ipc.taskExc, t.Task())
}

// LeakCheck implements kernel.LeakChecker: no exited task may still own a
// port space, and live spaces must hold only sane rights.
func (ipc *IPC) LeakCheck(k *kernel.Kernel) []string {
	var out []string
	type ent struct {
		pid int
		s   *Space
	}
	ents := make([]ent, 0, len(ipc.spaces))
	for tk, s := range ipc.spaces {
		ents = append(ents, ent{tk.PID(), s})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].pid < ents[j].pid })
	for _, e := range ents {
		tk := e.s.task
		if k.Task(tk.PID()) != tk || tk.Zombie() || tk.Threads() == 0 {
			out = append(out, fmt.Sprintf("mach_ipc: space for exited pid %d leaked (%d names)", e.pid, e.s.Names()))
			continue
		}
		names := make([]PortName, 0, len(e.s.names))
		for n := range e.s.names {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
		for _, n := range names {
			r := e.s.names[n]
			if r.refs < 1 {
				out = append(out, fmt.Sprintf("mach_ipc: pid %d name 0x%x holds a right with %d refs", e.pid, uint32(n), r.refs))
			}
			if r.port.dead && r.typ == RightReceive {
				if r.port.msgs.Len() > 0 || r.port.recvWait.Len() > 0 || r.port.sendWait.Len() > 0 {
					out = append(out, fmt.Sprintf("mach_ipc: pid %d name 0x%x: dead port not drained", e.pid, uint32(n)))
				}
			}
		}
	}
	return out
}

// RequestDeadNameNotification is mach_port_request_notification
// (MACH_NOTIFY_DEAD_NAME): when watched dies, a notification message is
// posted to the port named notify (a receive right in the caller's space).
func (ipc *IPC) RequestDeadNameNotification(t *kernel.Thread, watched, notify PortName) KernReturn {
	w, kr := ipc.resolve(t, watched)
	if kr != KernSuccess {
		return kr
	}
	n, kr := ipc.resolve(t, notify)
	if kr != KernSuccess {
		return kr
	}
	if n.typ != RightReceive {
		return KernInvalidRight
	}
	w.port.deadNameNotify = n.port
	return KernSuccess
}

func portIDBytes(id uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(id >> (8 * i))
	}
	return b
}

// PortDeallocate drops a send/send-once right.
func (ipc *IPC) PortDeallocate(t *kernel.Thread, name PortName) KernReturn {
	r, kr := ipc.resolve(t, name)
	if kr != KernSuccess {
		return kr
	}
	if r.typ == RightReceive {
		return KernInvalidRight
	}
	r.refs--
	if r.refs == 0 {
		s := ipc.spaces[t.Task()]
		delete(s.names, name)
		s.freeRight(r)
	}
	return KernSuccess
}

// InsertSendRight is mach_port_insert_right(MACH_MSG_TYPE_MAKE_SEND): mint
// a send right from a receive right in the same space.
func (ipc *IPC) InsertSendRight(t *kernel.Thread, recv PortName) (PortName, KernReturn) {
	r, kr := ipc.resolve(t, recv)
	if kr != KernSuccess {
		return PortNull, kr
	}
	if r.typ != RightReceive {
		return PortNull, KernInvalidRight
	}
	return ipc.SpaceFor(t.Task()).insert(r.port, RightSend), KernSuccess
}

// MakeSendRight exposes a right's port as a CarriedRight for embedding in
// a message: MACH_MSG_TYPE_MAKE_SEND from a receive right, or
// MACH_MSG_TYPE_COPY_SEND from an existing send right.
func (ipc *IPC) MakeSendRight(t *kernel.Thread, name PortName) (*CarriedRight, KernReturn) {
	r, kr := ipc.resolve(t, name)
	if kr != KernSuccess {
		return nil, kr
	}
	return &CarriedRight{Port: r.port, Type: RightSend}, KernSuccess
}

// Send is the send half of mach_msg: queue msg on the port named dest in
// the caller's space. timeout < 0 blocks at queue limit; 0 fails instead.
func (ipc *IPC) Send(t *kernel.Thread, dest PortName, msg *Message, timeout time.Duration) KernReturn {
	r, kr := ipc.resolve(t, dest)
	if kr != KernSuccess {
		return MachSendInvalidDest
	}
	if r.typ != RightSend && r.typ != RightSendOnce && r.typ != RightReceive {
		return KernInvalidRight
	}
	kr = ipc.sendToPort(t, r.port, msg, timeout)
	if kr == KernSuccess && r.typ == RightSendOnce {
		// Safe after the wakes: the receiver is not scheduled until the
		// sender yields, so the right is consumed before anyone can look.
		ipc.PortDeallocate(t, dest)
	}
	return kr
}

// sendToPort is the port-level send path shared by mach_msg and in-kernel
// senders (exception delivery): charge the message cost, consult the fault
// layer, block at the queue limit, enqueue and wake a receiver. Every Mach
// send — user or kernel originated — charges and faults identically here.
func (ipc *IPC) sendToPort(t *kernel.Thread, p *Port, msg *Message, timeout time.Duration) KernReturn {
	t.Charge(ipc.msgBase + time.Duration(msg.Size())*ipc.msgPerByte)
	// Fault layer: queue-overflow pressure (QLimit override forces the
	// blocked-sender path) and MACH_SEND_INTERRUPTED at entry.
	qlimit := p.qlimit
	if in := ipc.k.FaultInjector(); in != nil {
		if out, ok := in.Check(fault.OpMachSend, "send", t.Now()); ok {
			if out.Delay > 0 {
				t.Charge(out.Delay)
			}
			if out.QLimit > 0 && out.QLimit < qlimit {
				qlimit = out.QLimit
			}
			if out.Errno != 0 {
				return MachSendInterrupted
			}
		}
	}
	deadline := time.Duration(-1)
	if timeout >= 0 {
		deadline = t.Now() + timeout
	}
	for p.msgs.Len() >= qlimit {
		if p.dead {
			return MachSendInvalidDest
		}
		if deadline == 0 || (deadline > 0 && t.Now() >= deadline) {
			return MachSendTimedOut
		}
		var tag int
		if deadline > 0 {
			tag, _ = p.sendWait.WaitTimeout(t.Proc(), deadline-t.Now())
		} else {
			tag = p.sendWait.Wait(t.Proc())
		}
		if tag == sim.WakeInterrupted {
			return MachSendInterrupted
		}
	}
	if p.dead {
		return MachSendInvalidDest
	}
	p.msgs.Enqueue(msg)
	ipc.sent++
	// Wake a receiver on the port, or on its containing set.
	if p.set != nil {
		p.set.wait.WakeOne(t.Proc(), sim.WakeNormal)
	}
	p.recvWait.WakeOne(t.Proc(), sim.WakeNormal)
	return KernSuccess
}

// Receive is the receive half of mach_msg: dequeue from the port named
// recv. timeout < 0 blocks; 0 polls. Carried rights are moved into the
// caller's space and their new names set on the message.
func (ipc *IPC) Receive(t *kernel.Thread, recv PortName, timeout time.Duration) (*Message, KernReturn) {
	r, kr := ipc.resolve(t, recv)
	if kr != KernSuccess {
		return nil, kr
	}
	if r.typ != RightReceive {
		return nil, KernInvalidRight
	}
	p := r.port
	// Fault layer: MACH_RCV_INTERRUPTED pressure at entry.
	if in := ipc.k.FaultInjector(); in != nil {
		if out, ok := in.Check(fault.OpMachRecv, "recv", t.Now()); ok {
			if out.Delay > 0 {
				t.Charge(out.Delay)
			}
			if out.Errno != 0 {
				return nil, MachRcvInterrupted
			}
		}
	}
	deadline := time.Duration(-1)
	if timeout >= 0 {
		deadline = t.Now() + timeout
	}
	for p.msgs.Len() == 0 {
		if p.dead {
			return nil, MachRcvPortDied
		}
		if deadline == 0 || (deadline > 0 && t.Now() >= deadline) {
			return nil, MachRcvTimedOut
		}
		var tag int
		if deadline > 0 {
			tag, _ = p.recvWait.WaitTimeout(t.Proc(), deadline-t.Now())
		} else {
			tag = p.recvWait.Wait(t.Proc())
		}
		if tag == sim.WakeInterrupted {
			return nil, MachRcvInterrupted
		}
	}
	msg, _ := p.msgs.Dequeue()
	p.sendWait.WakeOne(t.Proc(), sim.WakeNormal)
	t.Charge(ipc.msgBase + time.Duration(msg.Size())*ipc.msgPerByte)
	ipc.received++
	ipc.moveRights(t, msg)
	return msg, KernSuccess
}

// moveRights installs a received message's carried rights into the
// receiver's space.
func (ipc *IPC) moveRights(t *kernel.Thread, msg *Message) {
	s := ipc.SpaceFor(t.Task())
	if msg.Reply != nil {
		msg.ReplyName = s.insert(msg.Reply.Port, msg.Reply.Type)
	}
	msg.RightNames = msg.RightNames[:0]
	for _, cr := range msg.Rights {
		msg.RightNames = append(msg.RightNames, s.insert(cr.Port, cr.Type))
	}
}

// MapOOL maps a received out-of-line memory descriptor into the caller's
// address space (vm_map of the OOL pages) — the zero-copy path IOSurface
// rides on.
func (ipc *IPC) MapOOL(t *kernel.Thread, backing *mem.Backing, name string) (uint64, KernReturn) {
	r, err := t.Task().Mem().MapBacking(0, backing.Size(), mem.ProtRead|mem.ProtWrite, name, true, backing, 0)
	if err != nil {
		return 0, KernNoSpace
	}
	return r.Base, KernSuccess
}

// PortSet is a Mach port set: receive from any member.
type PortSet struct {
	members []*Port
	wait    *sim.WaitQueue
}

// PortSetAllocate creates a port set (mach_port_allocate PORT_SET).
func (ipc *IPC) PortSetAllocate(t *kernel.Thread) *PortSet {
	t.Charge(ipc.portAlloc)
	return &PortSet{wait: sim.NewWaitQueue("mach_pset")}
}

// PortSetAdd moves a receive right into the set (mach_port_move_member).
func (ipc *IPC) PortSetAdd(t *kernel.Thread, set *PortSet, name PortName) KernReturn {
	r, kr := ipc.resolve(t, name)
	if kr != KernSuccess {
		return kr
	}
	if r.typ != RightReceive {
		return KernInvalidRight
	}
	r.port.set = set
	set.members = append(set.members, r.port)
	return KernSuccess
}

// ReceiveSet receives from any member port of a set.
func (ipc *IPC) ReceiveSet(t *kernel.Thread, set *PortSet, timeout time.Duration) (*Message, KernReturn) {
	if in := ipc.k.FaultInjector(); in != nil {
		if out, ok := in.Check(fault.OpMachRecv, "recv", t.Now()); ok {
			if out.Delay > 0 {
				t.Charge(out.Delay)
			}
			if out.Errno != 0 {
				return nil, MachRcvInterrupted
			}
		}
	}
	deadline := time.Duration(-1)
	if timeout >= 0 {
		deadline = t.Now() + timeout
	}
	for {
		for _, p := range set.members {
			if p.msgs.Len() > 0 {
				msg, _ := p.msgs.Dequeue()
				p.sendWait.WakeOne(t.Proc(), sim.WakeNormal)
				t.Charge(ipc.msgBase + time.Duration(msg.Size())*ipc.msgPerByte)
				ipc.received++
				ipc.moveRights(t, msg)
				return msg, KernSuccess
			}
		}
		if deadline == 0 || (deadline > 0 && t.Now() >= deadline) {
			return nil, MachRcvTimedOut
		}
		var tag int
		if deadline > 0 {
			tag, _ = set.wait.WaitTimeout(t.Proc(), deadline-t.Now())
		} else {
			tag = set.wait.Wait(t.Proc())
		}
		if tag == sim.WakeInterrupted {
			return nil, MachRcvInterrupted
		}
	}
}
