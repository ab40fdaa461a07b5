package ducttape

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Env is the duct tape zone's runtime: implementations of the foreign
// kernel's internal APIs (XNU's lck_mtx_*, kalloc, wait/wakeup)
// expressed in terms of domestic kernel primitives. Foreign subsystems
// compiled via duct tape (internal/xnu, internal/iokit) call only this
// surface — never the domestic kernel directly — which is the zone
// discipline Link enforces statically.
type Env struct {
	// allocated tracks kalloc'd bytes (leak diagnostics).
	allocated int64
	// lockCost and allocCost model the shim overhead of translating the
	// foreign primitive onto the domestic one.
	lockCost  time.Duration
	allocCost time.Duration
}

// NewEnv builds the adaptation runtime for a kernel.
func NewEnv(k *kernel.Kernel) *Env {
	cpu := k.Device().CPU
	return &Env{
		lockCost:  cpu.Cycles(26),
		allocCost: cpu.Cycles(130),
	}
}

// Kalloc models XNU's kalloc: accounted allocation in the domestic kernel
// heap (kmalloc underneath).
func (e *Env) Kalloc(t *kernel.Thread, size int) []byte {
	t.Charge(e.allocCost)
	e.allocated += int64(size)
	return make([]byte, size)
}

// Kfree models XNU's kfree.
func (e *Env) Kfree(t *kernel.Thread, buf []byte) {
	t.Charge(e.allocCost / 2)
	e.allocated -= int64(len(buf))
}

// AllocatedBytes reports outstanding kalloc memory.
func (e *Env) AllocatedBytes() int64 { return e.allocated }

// LckMtx is XNU's lck_mtx_t adapted onto domestic kernel sleeping locks.
// With the simulator's one-runnable-at-a-time execution the lock state
// machine is simple, but the block/wakeup path is real: contended lockers
// park on a wait queue and are woken FIFO.
type LckMtx struct {
	env    *Env
	name   string
	locked bool
	owner  *kernel.Thread
	waitq  *sim.WaitQueue
}

// NewLckMtx allocates a mutex (lck_mtx_alloc_init).
func (e *Env) NewLckMtx(name string) *LckMtx {
	return &LckMtx{env: e, name: name, waitq: sim.NewWaitQueue("lck_mtx:" + name)}
}

// Lock is lck_mtx_lock.
func (m *LckMtx) Lock(t *kernel.Thread) {
	t.Charge(m.env.lockCost)
	for m.locked {
		//lint:allow waketag: lck_mtx_lock is uninterruptible; the loop re-checks ownership before proceeding
		m.waitq.Wait(t.Proc())
	}
	m.locked = true
	m.owner = t
}

// Unlock is lck_mtx_unlock.
func (m *LckMtx) Unlock(t *kernel.Thread) {
	if !m.locked || m.owner != t {
		panic(fmt.Sprintf("ducttape: unlock of %s by non-owner", m.name))
	}
	t.Charge(m.env.lockCost)
	m.locked = false
	m.owner = nil
	m.waitq.WakeOne(t.Proc(), sim.WakeNormal)
}

// TryLock is lck_mtx_try_lock.
func (m *LckMtx) TryLock(t *kernel.Thread) bool {
	t.Charge(m.env.lockCost)
	if m.locked {
		return false
	}
	m.locked = true
	m.owner = t
	return true
}

// Semaphore is XNU's semaphore_t adapted onto domestic primitives.
type Semaphore struct {
	env   *Env
	count int
	waitq *sim.WaitQueue
}

// NewSemaphore is semaphore_create.
func (e *Env) NewSemaphore(name string, value int) *Semaphore {
	return &Semaphore{env: e, count: value, waitq: sim.NewWaitQueue("sem:" + name)}
}

// Wait is semaphore_wait; returns false if interrupted.
func (s *Semaphore) Wait(t *kernel.Thread) bool {
	t.Charge(s.env.lockCost)
	for s.count == 0 {
		if tag := s.waitq.Wait(t.Proc()); tag == sim.WakeInterrupted {
			return false
		}
	}
	s.count--
	return true
}

// WaitTimeout is semaphore_timedwait; reports (interrupted, timedOut).
func (s *Semaphore) WaitTimeout(t *kernel.Thread, d time.Duration) (bool, bool) {
	t.Charge(s.env.lockCost)
	deadline := t.Now() + d
	for s.count == 0 {
		remain := deadline - t.Now()
		if remain <= 0 {
			return false, true
		}
		tag, timedOut := s.waitq.WaitTimeout(t.Proc(), remain)
		if tag == sim.WakeInterrupted {
			return true, false
		}
		if timedOut {
			return false, true
		}
	}
	s.count--
	return false, false
}

// Signal is semaphore_signal.
func (s *Semaphore) Signal(t *kernel.Thread) {
	t.Charge(s.env.lockCost)
	s.count++
	s.waitq.WakeOne(t.Proc(), sim.WakeNormal)
}

// WaitEvent adapts XNU's assert_wait/thread_block/thread_wakeup triple onto
// a domestic wait queue keyed by an arbitrary event pointer.
type WaitEvent struct {
	env    *Env
	queues map[any]*sim.WaitQueue
}

// NewWaitEvent builds an event table (one per subsystem, as XNU hashes
// events globally).
func (e *Env) NewWaitEvent() *WaitEvent {
	return &WaitEvent{env: e, queues: make(map[any]*sim.WaitQueue)}
}

func (w *WaitEvent) queue(event any) *sim.WaitQueue {
	q, ok := w.queues[event]
	if !ok {
		q = sim.NewWaitQueue("event")
		w.queues[event] = q
	}
	return q
}

// Block is assert_wait + thread_block: park until Wakeup(event). Returns
// false when interrupted.
func (w *WaitEvent) Block(t *kernel.Thread, event any) bool {
	return w.queue(event).Wait(t.Proc()) != sim.WakeInterrupted
}

// BlockTimeout bounds the wait; reports (interrupted, timedOut).
func (w *WaitEvent) BlockTimeout(t *kernel.Thread, event any, d time.Duration) (bool, bool) {
	tag, timedOut := w.queue(event).WaitTimeout(t.Proc(), d)
	return tag == sim.WakeInterrupted, timedOut
}

// Wakeup is thread_wakeup: wake every thread blocked on event.
func (w *WaitEvent) Wakeup(t *kernel.Thread, event any) int {
	q, ok := w.queues[event]
	if !ok {
		return 0
	}
	return q.WakeAll(t.Proc(), sim.WakeNormal)
}

// WakeupOne is thread_wakeup_one.
func (w *WaitEvent) WakeupOne(t *kernel.Thread, event any) bool {
	q, ok := w.queues[event]
	if !ok {
		return false
	}
	return q.WakeOne(t.Proc(), sim.WakeNormal) != nil
}

// Queue is XNU's queue.h circular doubly-linked list, the list API the
// foreign code is written against. (XNU's Mach IPC uses recursive queuing
// structures that had to be rewritten for Linux — see internal/xnu's
// message queues, which use this flat queue instead.)
//
// The backing is a slice with an explicit head index rather than the old
// reslice-on-dequeue (items = items[1:]): resliced capacity is gone
// forever, so a steady Enqueue/Dequeue rhythm — every Mach message on
// every port — reallocated continually. With the head index the buffer
// reaches steady state and ping-pong traffic allocates nothing.
type Queue[T any] struct {
	items []T
	head  int
}

// Enqueue is queue_enter (tail insert).
//
//hot:noalloc
func (q *Queue[T]) Enqueue(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Compact the consumed prefix instead of growing.
		n := copy(q.items, q.items[q.head:])
		clearTail(q.items, n)
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v) // amortized growth to the queue's steady-state depth
}

// Dequeue is dequeue_head.
//
//hot:noalloc
func (q *Queue[T]) Dequeue() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Peek returns the head without removing it.
//
//hot:noalloc
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	return q.items[q.head], true
}

// Len is queue_empty's complement.
//
//hot:noalloc
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Remove deletes the first element for which match returns true.
func (q *Queue[T]) Remove(match func(T) bool) bool {
	for i := q.head; i < len(q.items); i++ {
		if match(q.items[i]) {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// Each iterates the queue in order.
func (q *Queue[T]) Each(fn func(T)) {
	for _, v := range q.items[q.head:] {
		fn(v)
	}
}

// clearTail zeroes the slots at and beyond n so dequeued references do not
// keep their objects alive.
func clearTail[T any](items []T, n int) {
	var zero T
	for i := n; i < len(items); i++ {
		items[i] = zero
	}
}
