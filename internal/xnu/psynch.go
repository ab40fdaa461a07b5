package xnu

import (
	"time"

	"repro/internal/ducttape"
	"repro/internal/kernel"
)

// Psynch is the kernel half of iOS pthread support: XNU's psynch facility
// from bsd/kern/pthread_support.c, which the iOS user-space pthread library
// depends on for mutexes, semaphores and condition variables — "none of
// which are present in the Linux kernel" (Section 4.2). Cider duct-tapes
// this file in unmodified; this is its simulated equivalent, written only
// against the duct tape adaptation surface.
//
// User space identifies each synchronization object by the address of its
// user-level structure; the kernel keys its wait state by that address,
// exactly as psynch keys on uaddr.
type Psynch struct {
	env *ducttape.Env
	// events parks threads per user address.
	events *ducttape.WaitEvent
	// mutexOwned tracks which user mutexes are held (kernel-side kwq state).
	mutexOwned map[uint64]bool
	// sems holds kernel semaphore state per user address.
	sems map[uint64]*ducttape.Semaphore

	opCost time.Duration
}

// PsynchExtension keys the Psynch instance in the kernel extension table.
const PsynchExtension = "psynch"

// InstallPsynch duct-tapes pthread kernel support into the kernel.
func InstallPsynch(k *kernel.Kernel, env *ducttape.Env) (*Psynch, error) {
	if err := linkAllUnits(); err != nil {
		return nil, err
	}
	ps := &Psynch{
		env:        env,
		events:     env.NewWaitEvent(),
		mutexOwned: make(map[uint64]bool),
		sems:       make(map[uint64]*ducttape.Semaphore),
		opCost:     k.Device().CPU.Cycles(1100),
	}
	k.SetExtension(PsynchExtension, ps)
	return ps, nil
}

// PsynchFromKernel fetches the installed psynch subsystem.
func PsynchFromKernel(k *kernel.Kernel) (*Psynch, bool) {
	v, ok := k.Extension(PsynchExtension)
	if !ok {
		return nil, false
	}
	ps, ok := v.(*Psynch)
	return ps, ok
}

// MutexWait is psynch_mutexwait: block until the user mutex at uaddr is
// released, then acquire its kernel-side ownership.
func (ps *Psynch) MutexWait(t *kernel.Thread, uaddr uint64) KernReturn {
	t.Charge(ps.opCost)
	for ps.mutexOwned[uaddr] {
		if !ps.events.Block(t, mutexKey(uaddr)) {
			return MachRcvInterrupted
		}
	}
	ps.mutexOwned[uaddr] = true
	return KernSuccess
}

// MutexDrop is psynch_mutexdrop: release the user mutex and wake a waiter.
func (ps *Psynch) MutexDrop(t *kernel.Thread, uaddr uint64) KernReturn {
	t.Charge(ps.opCost)
	if !ps.mutexOwned[uaddr] {
		return KernInvalidRight
	}
	delete(ps.mutexOwned, uaddr)
	ps.events.WakeupOne(t, mutexKey(uaddr))
	return KernSuccess
}

// CVWait is psynch_cvwait: atomically drop the mutex at muaddr and block on
// the condvar at cvaddr; reacquire the mutex before returning. A zero
// timeout blocks forever. Reports whether the wait timed out.
func (ps *Psynch) CVWait(t *kernel.Thread, cvaddr, muaddr uint64, timeout time.Duration) (timedOut bool, kr KernReturn) {
	t.Charge(ps.opCost)
	if kr := ps.MutexDrop(t, muaddr); kr != KernSuccess {
		return false, kr
	}
	if timeout > 0 {
		_, timedOut = ps.events.BlockTimeout(t, cvKey(cvaddr), timeout)
	} else {
		ps.events.Block(t, cvKey(cvaddr))
	}
	if kr := ps.MutexWait(t, muaddr); kr != KernSuccess {
		return timedOut, kr
	}
	return timedOut, KernSuccess
}

// CVSignal is psynch_cvsignal: wake one condvar waiter.
func (ps *Psynch) CVSignal(t *kernel.Thread, cvaddr uint64) KernReturn {
	t.Charge(ps.opCost)
	ps.events.WakeupOne(t, cvKey(cvaddr))
	return KernSuccess
}

// CVBroadcast is psynch_cvbroad: wake every condvar waiter.
func (ps *Psynch) CVBroadcast(t *kernel.Thread, cvaddr uint64) int {
	t.Charge(ps.opCost)
	return ps.events.Wakeup(t, cvKey(cvaddr))
}

// SemInit provisions a semaphore at uaddr (semaphore_create).
func (ps *Psynch) SemInit(t *kernel.Thread, uaddr uint64, value int) {
	t.Charge(ps.opCost)
	ps.sems[uaddr] = ps.env.NewSemaphore("psem", value)
}

// SemWait is semaphore_wait on the semaphore at uaddr.
func (ps *Psynch) SemWait(t *kernel.Thread, uaddr uint64) KernReturn {
	t.Charge(ps.opCost)
	s, ok := ps.sems[uaddr]
	if !ok {
		return KernInvalidName
	}
	if !s.Wait(t) {
		return MachRcvInterrupted
	}
	return KernSuccess
}

// SemSignal is semaphore_signal on the semaphore at uaddr.
func (ps *Psynch) SemSignal(t *kernel.Thread, uaddr uint64) KernReturn {
	t.Charge(ps.opCost)
	s, ok := ps.sems[uaddr]
	if !ok {
		return KernInvalidName
	}
	s.Signal(t)
	return KernSuccess
}

// mutexKey and cvKey namespace the shared event table.
type eventKey struct {
	kind  byte
	uaddr uint64
}

func mutexKey(uaddr uint64) eventKey { return eventKey{'m', uaddr} }
func cvKey(uaddr uint64) eventKey    { return eventKey{'c', uaddr} }
