package sim

import "time"

// waitNode is one queue entry. Entries live on an intrusive doubly-linked
// list (FIFO order) and, when the same Proc is enqueued more than once —
// select polls both directions of a socket pair, whose ends share queues —
// the occurrences for that Proc chain through nextSame, oldest first.
type waitNode struct {
	p          *Proc
	prev, next *waitNode
	// nextSame links to the same Proc's next-younger entry on this queue.
	nextSame *waitNode
}

// WaitQueue is a FIFO queue of parked Procs, the building block for kernel
// sleep/wakeup (pipes, sockets, Mach ports, futex-style sync).
//
// All operations are O(1): the linked list gives O(1) head pop and, with
// the oldest map locating a Proc's first entry, O(1) removal from the
// middle — the old slice implementation scanned O(n) waiters on every
// dequeue, which select-heavy workloads (one dequeue per polled file per
// wakeup) turned into O(n²).
type WaitQueue struct {
	name string
	// reason is the precomputed Park reason, so Wait does not concatenate
	// (and allocate) "waitq:"+name on every call.
	reason     string
	head, tail *waitNode
	size       int
	// oldest maps a waiting Proc to its oldest entry; younger duplicates
	// hang off that entry's nextSame chain. Lazily allocated: many queues
	// (one per pipe end, port, fence) never see a waiter.
	oldest map[*Proc]*waitNode
	// free recycles nodes through their next field.
	free *waitNode
	// decCands is wakeOneDecided's candidate scratch (reused, no
	// per-wake allocation; only ever grows under a Decider).
	decCands []*waitNode
}

// NewWaitQueue creates a wait queue with a diagnostic name.
func NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{name: name, reason: "waitq:" + name}
}

// Len reports the number of queue entries (a Proc enqueued twice counts
// twice, matching the old slice length).
func (q *WaitQueue) Len() int { return q.size }

//hot:noalloc
func (q *WaitQueue) newNode(p *Proc) *waitNode {
	n := q.free
	if n != nil {
		q.free = n.next
		n.next = nil
	} else {
		//lint:allow hotalloc: freelist miss — each node is allocated once and recycled forever after
		n = &waitNode{}
	}
	n.p = p
	return n
}

//hot:noalloc
func (q *WaitQueue) freeNode(n *waitNode) {
	n.p = nil
	n.prev = nil
	n.nextSame = nil
	n.next = q.free
	q.free = n
}

// enqueue appends p at the tail and registers the entry in the oldest map
// or, for a duplicate, at the end of p's nextSame chain (chains are as
// short as the select fan-out, so the walk is effectively constant).
//
//hot:noalloc
func (q *WaitQueue) enqueue(p *Proc) {
	n := q.newNode(p)
	if q.tail == nil {
		q.head = n
	} else {
		q.tail.next = n
		n.prev = q.tail
	}
	q.tail = n
	q.size++
	if q.oldest == nil {
		//lint:allow hotalloc: one-time lazy map — most queues never see a waiter
		q.oldest = make(map[*Proc]*waitNode)
	}
	if old, ok := q.oldest[p]; ok {
		for old.nextSame != nil {
			old = old.nextSame
		}
		old.nextSame = n
	} else {
		q.oldest[p] = n
	}
}

// unlink detaches n from the FIFO list (not from the oldest map).
//
//hot:noalloc
func (q *WaitQueue) unlink(n *waitNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	q.size--
}

// removeOldest deletes p's oldest entry, reporting whether one existed.
// This matches the old remove's first-occurrence semantics: the oldest
// entry is always the earliest of p's entries in FIFO order.
//
//hot:noalloc
func (q *WaitQueue) removeOldest(p *Proc) bool {
	n, ok := q.oldest[p]
	if !ok {
		return false
	}
	q.unlink(n)
	if n.nextSame != nil {
		q.oldest[p] = n.nextSame
	} else {
		delete(q.oldest, p)
	}
	q.freeNode(n)
	return true
}

// Wait parks p on the queue until woken. It returns the waker's tag
// (WakeNormal or WakeInterrupted).
//
//hot:noalloc
func (q *WaitQueue) Wait(p *Proc) int {
	q.enqueue(p)
	tag := p.Park(q.reason)
	// On wakeup we may have been removed by the waker; if we were
	// interrupted from outside the queue, remove ourselves.
	q.removeOldest(p)
	return tag
}

// WaitTimeout parks p until woken or until d elapses. It returns the wake
// tag and whether the wait timed out.
//
//hot:noalloc
func (q *WaitQueue) WaitTimeout(p *Proc, d time.Duration) (tag int, timedOut bool) {
	q.enqueue(p)
	tag = p.Sleep(d)
	stillQueued := q.removeOldest(p)
	// If we are still on the queue after Sleep returned WakeNormal, the
	// timer fired before any waker found us.
	return tag, stillQueued && tag == WakeNormal
}

// Enqueue registers p as a waiter without parking; used with Dequeue to
// wait on several queues at once (select/poll). The caller parks itself
// after enqueuing on every queue and dequeues from all of them on wakeup.
//
//hot:noalloc
func (q *WaitQueue) Enqueue(p *Proc) {
	q.enqueue(p)
}

// Dequeue removes p's oldest entry, reporting whether it was present.
//
//hot:noalloc
func (q *WaitQueue) Dequeue(p *Proc) bool {
	return q.removeOldest(p)
}

// WakeOne wakes the longest-waiting Proc, returning it, or nil if the queue
// was empty. Entries whose Proc is no longer wakeable (already woken
// through another queue) are discarded in passing, exactly as the slice
// version popped them. waker must be the running Proc.
//
//hot:noalloc
func (q *WaitQueue) WakeOne(waker *Proc, tag int) *Proc {
	if d := waker.sim.decider; d != nil && q.size > 1 {
		return q.wakeOneDecided(waker, tag, d)
	}
	for q.head != nil {
		n := q.head
		p := n.p
		// The head is necessarily p's oldest entry: oldest-map targets
		// appear in FIFO order before their nextSame successors.
		q.unlink(n)
		if n.nextSame != nil {
			q.oldest[p] = n.nextSame
		} else {
			delete(q.oldest, p)
		}
		q.freeNode(n)
		if waker.Wake(p, tag) {
			return p
		}
	}
	return nil
}

// wakeOneDecided is WakeOne with the wake order handed to the Decider:
// the distinct waiting Procs are enumerated oldest-first (a Proc
// enqueued more than once is one candidate, via its oldest entry) and
// the Decider picks which to wake. Unwakeable picks are discarded and
// the choice re-made among the remainder, so a WakeAll expressed as
// repeated WakeOne calls still enumerates every wake permutation.
//
//hot:noalloc
func (q *WaitQueue) wakeOneDecided(waker *Proc, tag int, d Decider) *Proc {
	for q.head != nil {
		q.decCands = q.decCands[:0]
		for n := q.head; n != nil; n = n.next {
			if q.oldest[n.p] == n {
				q.decCands = append(q.decCands, n)
			}
		}
		idx := 0
		if len(q.decCands) > 1 {
			idx = d.Decide(DecisionWake, q.name, len(q.decCands), waker.now)
			if idx < 0 || idx >= len(q.decCands) {
				idx = len(q.decCands) - 1
			}
		}
		n := q.decCands[idx]
		p := n.p
		q.unlink(n)
		if n.nextSame != nil {
			q.oldest[p] = n.nextSame
		} else {
			delete(q.oldest, p)
		}
		q.freeNode(n)
		if waker.Wake(p, tag) {
			return p
		}
	}
	return nil
}

// WakeAll wakes every parked waiter, returning how many were woken.
//
//hot:noalloc
func (q *WaitQueue) WakeAll(waker *Proc, tag int) int {
	n := 0
	for q.WakeOne(waker, tag) != nil {
		n++
	}
	return n
}
