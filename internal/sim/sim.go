// Package sim implements a deterministic discrete-event simulator whose
// processes are goroutines scheduled cooperatively, one at a time, in
// virtual-time order.
//
// Every simulated thread in the Cider reproduction — kernel tasks, service
// daemons, benchmark drivers — is a sim.Proc. Exactly one Proc executes at
// any moment (the scheduler hands a run token around), so shared simulation
// state needs no locking, and virtual time advances only through explicit
// Advance calls. The scheduler always resumes the runnable Proc with the
// smallest local clock, which models an unlimited-core machine: two Procs
// that each charge 1ms of compute finish at t=1ms, not t=2ms. CPU-count
// contention is modelled at the workload layer (see internal/hw), which is
// sufficient for the latency- and rate-style measurements the paper reports.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// State describes where a Proc is in its lifecycle.
type State int

const (
	// StateRunnable means the Proc is ready to execute.
	StateRunnable State = iota
	// StateRunning means the Proc currently holds the run token.
	StateRunning
	// StateSleeping means the Proc is waiting for virtual time to pass.
	StateSleeping
	// StateParked means the Proc is blocked until another Proc wakes it.
	StateParked
	// StateDone means the Proc's function returned or it called Exit.
	StateDone
)

func (s State) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Wake tags let a waker tell a parked Proc why it was woken; the kernel uses
// them to distinguish normal wakeups from signal interruptions.
const (
	// WakeNormal is an ordinary wakeup.
	WakeNormal = 0
	// WakeInterrupted indicates the sleep/park was cut short (signal).
	WakeInterrupted = 1
)

// ErrDeadlock is returned by Run when parked Procs remain but nothing can
// ever wake them.
type ErrDeadlock struct {
	// Parked lists the names of the non-daemon Procs that were still
	// blocked, as "name(reason)" strings.
	Parked []string
	// Procs is the full wait snapshot at detection time: every parked
	// Proc — parked daemons included, since they are often the other end
	// of the lost wakeup — with its park reason and virtual clock.
	Procs []ParkedProc
	// Decisions holds the last few scheduler decisions before the
	// deadlock, newest last, when a decision-logging Decider (see
	// DecisionLister) was installed; nil otherwise.
	Decisions []string
}

// ParkedProc is one blocked Proc's entry in a deadlock report.
type ParkedProc struct {
	// Name is the Proc's diagnostic name.
	Name string
	// ID is the Proc's simulator id.
	ID int
	// Reason is what the Proc was parked on (the Park reason, typically a
	// wait-queue name such as "waitq:port:17").
	Reason string
	// At is the Proc's virtual clock when it parked.
	At time.Duration
	// Daemon marks background services, which do not themselves make the
	// system deadlocked.
	Daemon bool
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock with %d parked procs: %v", len(e.Parked), e.Parked)
}

// Report formats the wait snapshot as a multi-line diagnostic: one line
// per parked Proc with its id, name, virtual park time, and wait reason.
func (e *ErrDeadlock) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock: %d proc(s) parked with no possible waker\n", len(e.Parked))
	for _, p := range e.Procs {
		mark := ""
		if p.Daemon {
			mark = " [daemon]"
		}
		fmt.Fprintf(&b, "  proc %d %q%s parked at %v waiting on %s\n",
			p.ID, p.Name, mark, p.At, p.Reason)
	}
	if len(e.Decisions) > 0 {
		fmt.Fprintf(&b, "last %d scheduler decision(s) before deadlock (oldest first):\n", len(e.Decisions))
		for _, d := range e.Decisions {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	return b.String()
}

// SchedEvent identifies one scheduler event delivered to a Sink.
type SchedEvent int

const (
	// SchedSpawn fires when a Proc is created.
	SchedSpawn SchedEvent = iota
	// SchedBlock fires when a Proc gives up the run token (park, sleep, or
	// preemption); the event detail carries the park reason.
	SchedBlock
	// SchedResume fires when a blocked Proc is scheduled again.
	SchedResume
	// SchedWake fires when a parked or sleeping Proc is made runnable by
	// another Proc; the detail is "interrupted" for signal-style wakes.
	SchedWake
	// SchedExit fires when a Proc terminates.
	SchedExit
	// NumSchedEvents bounds the event kinds (sizing arrays).
	NumSchedEvents
)

func (e SchedEvent) String() string {
	switch e {
	case SchedSpawn:
		return "spawn"
	case SchedBlock:
		return "block"
	case SchedResume:
		return "resume"
	case SchedWake:
		return "wake"
	case SchedExit:
		return "exit"
	}
	return fmt.Sprintf("sched(%d)", int(e))
}

// Sink receives scheduler events. It replaces the old single trace
// callback: a Sink implementation (internal/trace owns the canonical one)
// can feed ring buffers, per-proc accounting, or test assertions. Sinks
// must never re-enter the simulator (no Spawn/Wake/Advance); they observe
// virtual time, they do not create it.
type Sink interface {
	// SchedEvent reports one event. detail carries the park reason on
	// block events and "interrupted" on interrupting wakes; it is empty
	// otherwise.
	SchedEvent(ev SchedEvent, proc string, id int, at time.Duration, detail string)
}

// exitProc is the panic value used to unwind a Proc on Exit.
type exitProc struct{ p *Proc }

// closeUnwind is the panic value Close unwinds a released Proc with. It
// is zero-size, so raising it on the switch path allocates nothing.
type closeUnwind struct{}

// ErrClosed is returned by Run, and is the panic value of Spawn, once the
// Sim has been closed.
var ErrClosed = errors.New("sim: simulator closed")

// Proc is a simulated thread of execution. Its methods must only be called
// from its own goroutine while it holds the run token (i.e. from within the
// function passed to Spawn), except where noted.
type Proc struct {
	sim   *Sim
	id    int
	name  string
	state State
	now   time.Duration
	// wakeAt is the wakeup deadline while sleeping.
	wakeAt time.Duration
	// wakeTag carries the waker's tag to a parked/sleeping Proc.
	wakeTag int
	// parkReason describes what a parked Proc is waiting for (diagnostics).
	parkReason string
	// run carries the scheduler's run token to the Proc.
	run chan struct{}
	// heapIndex is the Proc's position in the ready heap.
	heapIndex int
	// twNext/twPrev/twLevel/twSlot thread the Proc through the sleep timer
	// wheel's intrusive slot lists; twLevel is -1 while not sleeping.
	twNext, twPrev *Proc
	twLevel        int8
	twSlot         int8
	fn             func(*Proc)
	// onExit callbacks run (in the Proc's context) after fn returns.
	onExit []func(*Proc)
	// daemon marks the Proc as a background service: the simulation ends
	// when only daemons remain, and a parked daemon is not a deadlock.
	daemon bool
}

// SetDaemon marks/unmarks the Proc as a daemon (see Sim.Run).
func (p *Proc) SetDaemon(on bool) {
	if p.daemon == on {
		return
	}
	p.daemon = on
	if p.state != StateDone {
		if on {
			p.sim.nonDaemonLive--
		} else {
			p.sim.nonDaemonLive++
		}
	}
}

// Daemon reports whether the Proc is a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// ID returns the Proc's unique id, assigned in spawn order.
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// State reports the Proc's lifecycle state. It may be called from any Proc.
func (p *Proc) State() State { return p.state }

// Now returns the Proc's local virtual clock.
func (p *Proc) Now() time.Duration { return p.now }

// Sim returns the simulator this Proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Advance charges d of virtual compute time to the Proc. Negative d panics.
//
//hot:noalloc
func (p *Proc) Advance(d time.Duration) {
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	p.now += d
	// If another Proc could now run earlier than us, hand over the token so
	// virtual-time ordering is preserved across Procs.
	p.sim.maybePreempt(p)
}

// Yield gives other runnable Procs with a clock at or before ours a chance
// to run. It never advances time.
//
//hot:noalloc
func (p *Proc) Yield() {
	p.sim.maybePreempt(p)
}

// Sleep blocks the Proc until at least d of virtual time has passed. It
// returns the wake tag: WakeNormal when the timer expired, or the tag passed
// by an interrupting waker.
//
//hot:noalloc
func (p *Proc) Sleep(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	if h := p.sim.interruptHook; h != nil && h(p, "sleep") {
		return WakeInterrupted
	}
	p.state = StateSleeping
	p.wakeAt = p.now + d
	p.wakeTag = WakeNormal
	p.sim.sleepers.push(p)
	p.sim.yieldAndWait(p)
	return p.wakeTag
}

// Park blocks the Proc until another Proc calls Wake on it. The reason is
// reported in deadlock errors and debug dumps. It returns the waker's tag.
//
//hot:noalloc
func (p *Proc) Park(reason string) int {
	if h := p.sim.interruptHook; h != nil && h(p, reason) {
		return WakeInterrupted
	}
	p.state = StateParked
	p.parkReason = reason
	p.wakeTag = WakeNormal
	p.sim.parked[p.id] = p
	p.sim.yieldAndWait(p)
	return p.wakeTag
}

// Wake makes a parked or sleeping Proc runnable. The waker's clock is
// propagated: the woken Proc can never observe a time earlier than the wake.
// tag is returned from the woken Proc's Park/Sleep. Waking a runnable or
// done Proc is a no-op and returns false. Must be called by the running
// Proc (not from outside the simulation).
//
//hot:noalloc
func (p *Proc) Wake(target *Proc, tag int) bool {
	return p.sim.wake(p.now, target, tag)
}

// Exit terminates the Proc immediately, unwinding its stack.
func (p *Proc) Exit() {
	panic(exitProc{p})
}

// OnExit registers fn to run in the Proc's context when it terminates,
// whether by return or Exit. Callbacks run in reverse registration order.
func (p *Proc) OnExit(fn func(*Proc)) {
	p.onExit = append(p.onExit, fn)
}

// procHeap orders Procs by (clock, id) for deterministic scheduling. It
// is a hand-rolled binary heap rather than container/heap: push/pop/remove
// sit on the scheduler's hottest path, and the direct version avoids the
// interface boxing and indirect Less/Swap calls of the generic one.
type procHeap struct {
	procs []*Proc
	// bySleep keys the heap on wakeAt instead of now.
	bySleep bool
}

//
//hot:noalloc
func (h *procHeap) key(p *Proc) time.Duration {
	if h.bySleep {
		return p.wakeAt
	}
	return p.now
}

func (h *procHeap) Len() int { return len(h.procs) }

// less orders by (key, id); the id tiebreak makes scheduling deterministic.
//
//hot:noalloc
func (h *procHeap) less(a, b *Proc) bool {
	ka, kb := h.key(a), h.key(b)
	if ka != kb {
		return ka < kb
	}
	return a.id < b.id
}

//
//hot:noalloc
func (h *procHeap) up(i int) {
	p := h.procs[i]
	for i > 0 {
		parent := (i - 1) / 2
		q := h.procs[parent]
		if !h.less(p, q) {
			break
		}
		h.procs[i] = q
		q.heapIndex = i
		i = parent
	}
	h.procs[i] = p
	p.heapIndex = i
}

//
//hot:noalloc
func (h *procHeap) down(i int) {
	n := len(h.procs)
	p := h.procs[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(h.procs[r], h.procs[child]) {
			child = r
		}
		q := h.procs[child]
		if !h.less(q, p) {
			break
		}
		h.procs[i] = q
		q.heapIndex = i
		i = child
	}
	h.procs[i] = p
	p.heapIndex = i
}

//
//hot:noalloc
func (h *procHeap) push(p *Proc) {
	p.heapIndex = len(h.procs)
	h.procs = append(h.procs, p)
	h.up(p.heapIndex)
}

//
//hot:noalloc
func (h *procHeap) pop() *Proc {
	p := h.procs[0]
	n := len(h.procs) - 1
	last := h.procs[n]
	h.procs[n] = nil
	h.procs = h.procs[:n]
	if n > 0 {
		h.procs[0] = last
		last.heapIndex = 0
		h.down(0)
	}
	p.heapIndex = -1
	return p
}

func (h *procHeap) peek() *Proc { return h.procs[0] }

//
//hot:noalloc
func (h *procHeap) remove(p *Proc) {
	i := p.heapIndex
	if i < 0 || i >= len(h.procs) || h.procs[i] != p {
		return
	}
	n := len(h.procs) - 1
	last := h.procs[n]
	h.procs[n] = nil
	h.procs = h.procs[:n]
	if i < n {
		h.procs[i] = last
		last.heapIndex = i
		h.down(i)
		h.up(i)
	}
	p.heapIndex = -1
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	nextID int
	ready  *procHeap
	// sleepers holds Procs in timed waits. It is a timer wheel, not a heap:
	// most sleeps are cancelled by a Wake before expiry, and the wheel makes
	// both arm and cancel O(1) (see timerwheel.go).
	sleepers *timerWheel
	parked   map[int]*Proc
	// yield returns control to Run when no Proc can take the token
	// directly (simulation finished, deadlocked, or panicking); ordinary
	// switches hand the token proc-to-proc without touching it.
	yield chan struct{}
	// current is the Proc holding the run token.
	current *Proc
	running bool
	// live counts Procs that are not done; nonDaemonLive excludes daemons.
	live          int
	nonDaemonLive int
	// sink, when non-nil, receives scheduling events (see Sink).
	sink Sink
	// interruptHook, when non-nil, is consulted at the top of Park and
	// Sleep; returning true makes the wait return WakeInterrupted
	// immediately without blocking or advancing time (fault injection).
	interruptHook func(p *Proc, reason string) bool
	// decider, when non-nil, resolves ambiguous scheduling choices (see
	// decider.go). The nil check is the entire disabled-path cost.
	decider Decider
	// decCands is nextDecided's candidate scratch (reused, no per-pick
	// allocation).
	decCands []*Proc
	// panicValue propagates a Proc panic out of Run.
	panicValue any
	panicProc  string
	// closed is set by Close: a Proc handed the token from then on
	// unwinds instead of running.
	closed bool
}

// New creates an empty simulator.
func New() *Sim {
	return &Sim{
		ready:    &procHeap{},
		sleepers: newTimerWheel(),
		parked:   make(map[int]*Proc),
		yield:    make(chan struct{}),
	}
}

// SetSink installs a scheduler-event sink. Pass nil to disable. The nil
// check is the entire disabled-path cost: no event is materialized unless
// a sink is attached, and sinks never advance virtual time, so attaching
// one cannot change simulation results.
func (s *Sim) SetSink(sink Sink) { s.sink = sink }

// SetInterruptHook installs (or, with nil, removes) the blocking-wait
// interrupt hook. The hook runs before a Park or Sleep blocks, with the
// park reason ("sleep" for Sleep and timed waits); returning true makes
// the wait return WakeInterrupted without blocking. The hook must be
// deterministic for simulation results to stay reproducible.
func (s *Sim) SetInterruptHook(h func(p *Proc, reason string) bool) { s.interruptHook = h }

//
//hot:noalloc
func (s *Sim) emit(ev SchedEvent, p *Proc, detail string) {
	if s.sink != nil {
		s.sink.SchedEvent(ev, p.name, p.id, p.now, detail)
	}
}

// blockDetail names what the Proc is blocking on for SchedBlock events.
//
//hot:noalloc
func blockDetail(p *Proc) string {
	switch p.state {
	case StateParked:
		return p.parkReason
	case StateSleeping:
		return "sleep"
	}
	return ""
}

// Spawn creates a new Proc running fn. When called before Run, the Proc
// starts at time zero; when called from inside a running Proc, the child
// inherits the parent's clock. The child's goroutine starts lazily on first
// schedule. Spawn panics with ErrClosed once the Sim has been closed.
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	if s.closed {
		panic(ErrClosed)
	}
	p := &Proc{
		sim:       s,
		id:        s.nextID,
		name:      name,
		state:     StateRunnable,
		run:       make(chan struct{}),
		heapIndex: -1,
		twLevel:   -1,
		fn:        fn,
	}
	s.nextID++
	s.live++
	s.nonDaemonLive++
	if s.current != nil {
		p.now = s.current.now
	}
	go s.procMain(p)
	s.ready.push(p)
	s.emit(SchedSpawn, p, "")
	return p
}

// procMain is each Proc's goroutine body: wait for the token, run fn, then
// unwind through exit handling.
func (s *Sim) procMain(p *Proc) {
	<-p.run
	defer func() {
		r := recover()
		if s.closed {
			// Close is releasing this Proc. The simulation is over and
			// its results already read, so whatever unwound the stack —
			// the closeUnwind sentinel, or a panic a deferred call raised
			// on the way — ends here: no exit callbacks, no accounting,
			// no events, and the token goes straight back to Close.
			p.state = StateDone
			s.yield <- struct{}{}
			return
		}
		if r != nil {
			if e, ok := r.(exitProc); !ok || e.p != p {
				// Real panic: record and unwind the whole simulation.
				if s.panicValue == nil {
					s.panicValue = r
					s.panicProc = p.name
				}
			}
		}
		for i := len(p.onExit) - 1; i >= 0; i-- {
			p.onExit[i](p)
		}
		p.state = StateDone
		s.live--
		if !p.daemon {
			s.nonDaemonLive--
		}
		s.emit(SchedExit, p, "")
		s.handoff()
	}()
	if s.closed {
		return // released before its first turn: fn never runs
	}
	p.fn(p)
}

// yieldAndWait releases the token and blocks until this Proc is scheduled
// again. The token goes directly to the next schedulable Proc (see
// handoff), not back through the Run loop.
//
//hot:noalloc
func (s *Sim) yieldAndWait(p *Proc) {
	if s.closed {
		// A deferred call blocked while Close unwinds p: keep unwinding.
		panic(closeUnwind{})
	}
	s.emit(SchedBlock, p, blockDetail(p))
	if !s.handoffFrom(p) {
		<-p.run
		if s.closed {
			panic(closeUnwind{})
		}
	}
	p.state = StateRunning
	s.emit(SchedResume, p, "")
}

// handoff passes the run token from the calling Proc's goroutine straight
// to the next schedulable Proc: one channel send instead of the old
// yield-to-scheduler/schedule-from-loop pair, halving the channel
// operations and host context switches per virtual context switch.
// Control returns to the Run loop only when the simulation cannot proceed
// from here — every non-daemon finished, nothing is schedulable
// (potential deadlock), or a Proc panicked.
//
//hot:noalloc
func (s *Sim) handoff() { s.handoffFrom(nil) }

// handoffFrom implements handoff for a blocking Proc. When the next
// schedulable Proc is the caller itself (a sole Proc sleeping, say — next()
// pops it straight back out of the sleep heap), sending on its own
// unbuffered run channel would deadlock; instead it returns true and the
// caller resumes without any channel operation at all.
//
//hot:noalloc
func (s *Sim) handoffFrom(from *Proc) bool {
	if s.panicValue == nil && s.nonDaemonLive > 0 {
		if next := s.next(); next != nil {
			next.state = StateRunning
			s.current = next
			if next == from {
				return true
			}
			next.run <- struct{}{}
			return false
		}
	}
	s.current = nil
	s.yield <- struct{}{}
	return false
}

// maybePreempt hands the token over if another Proc could run at an earlier
// or equal clock. The current Proc stays runnable.
//
//hot:noalloc
func (s *Sim) maybePreempt(p *Proc) {
	if s.decider != nil {
		s.maybePreemptDecided(p)
		return
	}
	// Same-proc fast path: when the running Proc would win the next
	// scheduling decision anyway — no ready or sleeping Proc has a
	// strictly earlier clock, or an equal clock with a smaller id — the
	// old code still bounced the token through a full block/resume pair
	// just to be handed it back. Skipping the handoff preserves the
	// execution order exactly (the winner runs either way) and therefore
	// every virtual-time result; only the redundant self-switch, with its
	// two goroutine switches, disappears.
	if s.stillMin(p) {
		return
	}
	s.preempt(p)
}

// stillMin reports whether p beats every ready and sleeping Proc under the
// scheduler's (clock, id) order — i.e. next() would pick p again.
//
//hot:noalloc
func (s *Sim) stillMin(p *Proc) bool {
	if len(s.ready.procs) > 0 {
		q := s.ready.procs[0]
		if q.now < p.now || (q.now == p.now && q.id < p.id) {
			return false
		}
	}
	if q := s.sleepers.peek(); q != nil {
		if q.wakeAt < p.now || (q.wakeAt == p.now && q.id < p.id) {
			return false
		}
	}
	return true
}

// wake transitions target out of parked/sleeping. Shared by Proc.Wake and
// external wakes.
//
//hot:noalloc
func (s *Sim) wake(at time.Duration, target *Proc, tag int) bool {
	switch target.state {
	case StateParked:
		delete(s.parked, target.id)
	case StateSleeping:
		s.sleepers.remove(target)
	default:
		return false
	}
	if target.now < at {
		target.now = at
	}
	target.wakeTag = tag
	target.parkReason = ""
	target.state = StateRunnable
	s.ready.push(target)
	detail := ""
	if tag != WakeNormal {
		detail = "interrupted"
	}
	s.emit(SchedWake, target, detail)
	return true
}

// next picks the Proc to run: the earliest of ready and sleep heaps.
//
//hot:noalloc
func (s *Sim) next() *Proc {
	if s.decider != nil {
		return s.nextDecided()
	}
	var pick *Proc
	fromSleep := false
	if s.ready.Len() > 0 {
		pick = s.ready.peek()
	}
	if sl := s.sleepers.peek(); sl != nil {
		if pick == nil || sl.wakeAt < pick.now || (sl.wakeAt == pick.now && sl.id < pick.id) {
			pick = sl
			fromSleep = true
		}
	}
	if pick == nil {
		return nil
	}
	if fromSleep {
		s.sleepers.popMin()
		pick.now = pick.wakeAt
		pick.wakeTag = WakeNormal
	} else {
		s.ready.pop()
	}
	return pick
}

// Run executes the simulation until every Proc is done, a deadlock is
// detected, or a Proc panics (in which case Run re-panics with the Proc's
// panic value). After Close it returns ErrClosed.
func (s *Sim) Run() error {
	if s.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	if s.closed {
		return ErrClosed
	}
	s.running = true
	defer func() { s.running = false }()
	for s.nonDaemonLive > 0 {
		p := s.next()
		if p == nil {
			// Everyone left is parked. If any non-daemon is among them,
			// that is a deadlock; parked daemons just mean the system is
			// idle.
			var names []string
			var snapshot []ParkedProc
			for _, q := range s.parked {
				if !q.daemon {
					names = append(names, fmt.Sprintf("%s(%s)", q.name, q.parkReason))
				}
				snapshot = append(snapshot, ParkedProc{
					Name: q.name, ID: q.id, Reason: q.parkReason,
					At: q.now, Daemon: q.daemon,
				})
			}
			if len(names) == 0 {
				return nil
			}
			sort.Strings(names)
			sort.Slice(snapshot, func(i, j int) bool { return snapshot[i].ID < snapshot[j].ID })
			e := &ErrDeadlock{Parked: names, Procs: snapshot}
			if dl, ok := s.decider.(DecisionLister); ok {
				e.Decisions = dl.RecentDecisions()
			}
			return e
		}
		p.state = StateRunning
		s.current = p
		p.run <- struct{}{}
		<-s.yield
		s.current = nil
		if s.panicValue != nil {
			pv, pp := s.panicValue, s.panicProc
			s.panicValue = nil
			panic(fmt.Sprintf("sim: proc %q panicked: %v", pp, pv))
		}
	}
	return nil
}

// Close releases the goroutine of every Proc that has not finished:
// daemons parked or sleeping when Run returned, Procs spawned but never
// scheduled, and the non-daemons an ErrDeadlock left blocked. Each such
// goroutine otherwise waits for the run token forever and keeps
// everything its Proc can reach alive.
//
// Close first detaches the sink, the interrupt hook and the decider, then
// hands each Proc the token in id order, one at a time. The Proc unwinds
// its stack with a private panic that procMain recovers without running
// OnExit callbacks, updating Live, emitting events or handing the token
// on. Go defers do run during the unwind, and one that would block
// (Park, Sleep, a preempting Advance) unwinds further instead. Because
// those defers can change simulated state (a Mach port lock released, a
// reply port destroyed), Close is not done when Run returns: the owner
// calls it after reading the results it wants.
//
// Close is idempotent. It must not be called while Run is executing;
// afterwards Run returns ErrClosed and Spawn panics with it.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	if s.running {
		panic("sim: Close called during Run")
	}
	s.closed = true
	s.sink, s.interruptHook, s.decider = nil, nil, nil
	for _, p := range s.takeUnfinished() {
		if p.state == StateDone {
			continue
		}
		p.state = StateRunning
		s.current = p
		p.run <- struct{}{}
		<-s.yield
	}
	s.current = nil
}

// takeUnfinished empties the ready heap, the sleep wheel and the parked
// set, returning their Procs sorted by id.
func (s *Sim) takeUnfinished() []*Proc {
	procs := make([]*Proc, 0, s.ready.Len()+s.sleepers.Len()+len(s.parked))
	procs = append(procs, s.ready.procs...)
	s.ready = &procHeap{}
	for s.sleepers.Len() > 0 {
		procs = append(procs, s.sleepers.popMin())
	}
	for _, p := range s.parked {
		procs = append(procs, p)
	}
	clear(s.parked)
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	return procs
}

// Closed reports whether Close has been called.
func (s *Sim) Closed() bool { return s.closed }

// Current returns the Proc holding the run token, or nil between turns.
func (s *Sim) Current() *Proc { return s.current }

// Live reports the number of Procs that have not finished.
func (s *Sim) Live() int { return s.live }
