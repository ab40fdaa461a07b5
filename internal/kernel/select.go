package kernel

import (
	"time"

	"repro/internal/sim"
)

// SelectRequest describes one select(2) invocation.
type SelectRequest struct {
	// ReadFDs and WriteFDs are the descriptor sets to test.
	ReadFDs  []int
	WriteFDs []int
	// Timeout < 0 blocks forever; 0 polls; > 0 bounds the wait.
	Timeout time.Duration
}

// SelectResult reports ready descriptors.
type SelectResult struct {
	ReadReady  []int
	WriteReady []int
}

// N returns the total number of ready descriptors.
func (r *SelectResult) N() int { return len(r.ReadReady) + len(r.WriteReady) }

// selectInternal implements select(2): scan the sets (charging the per-fd
// cost the lmbench select test measures), and block on every referenced
// file's poll queue until something becomes ready.
func (t *Thread) selectInternal(req *SelectRequest) (*SelectResult, Errno) {
	k := t.k
	nfds := len(req.ReadFDs) + len(req.WriteFDs)
	if k.costs.SelectMaxFDs > 0 && nfds >= k.costs.SelectMaxFDs {
		// The iPad mini's kernel "simply failed to complete for 250 file
		// descriptors" (Section 6.2).
		return nil, EINVAL
	}
	deadline := time.Duration(-1)
	if req.Timeout >= 0 {
		deadline = t.proc.Now() + req.Timeout
	}
	for {
		t.charge(k.costs.SelectBase + time.Duration(nfds)*k.costs.SelectPerFD)
		res, bad := t.scanSelect(req)
		if bad {
			return nil, EBADF
		}
		if res.N() > 0 {
			return res, OK
		}
		if req.Timeout == 0 {
			return res, OK // poll: nothing ready
		}
		// Nothing ready: wait on every queue at once.
		queues := t.selectQueues(req)
		for _, q := range queues {
			q.Enqueue(t.proc)
		}
		var tag int
		timedOut := false
		if deadline >= 0 {
			remain := deadline - t.proc.Now()
			if remain < 0 {
				remain = 0
			}
			tag = t.proc.Sleep(remain)
			timedOut = tag == sim.WakeNormal && t.proc.Now() >= deadline
		} else {
			tag = t.proc.Park("select")
		}
		for _, q := range queues {
			q.Dequeue(t.proc)
		}
		if tag == sim.WakeInterrupted {
			return nil, EINTR
		}
		if timedOut {
			// A queue wake can race the deadline: a WakeNormal arriving at
			// or after the deadline instant looks identical to timer expiry,
			// but an fd may have become ready. Rescan once so that ready fd
			// is reported instead of dropped. The rescan is deliberately
			// uncharged — a true timeout must cost exactly what it did
			// before this fix (benchmark virtual times are bit-identical),
			// and the racing waker's readiness check rides on the scan cost
			// already charged this iteration.
			res, bad = t.scanSelect(req)
			if bad {
				return nil, EBADF
			}
			return res, OK
		}
	}
}

// scanSelect performs one readiness pass over the request's descriptor
// sets; bad reports a dangling descriptor. It counts the ready
// descriptors first, so the two ready lists share one exactly-sized
// array, and allocate nothing when none is ready.
func (t *Thread) scanSelect(req *SelectRequest) (res *SelectResult, bad bool) {
	nr, bad := t.countReady(req.ReadFDs, PollIn)
	if bad {
		return nil, true
	}
	nw, bad := t.countReady(req.WriteFDs, PollOut)
	if bad {
		return nil, true
	}
	res = &SelectResult{}
	if nr+nw == 0 {
		return res, false
	}
	ready := t.appendReady(make([]int, 0, nr+nw), req.ReadFDs, PollIn)
	ready = t.appendReady(ready, req.WriteFDs, PollOut)
	if nr > 0 {
		res.ReadReady = ready[:nr:nr]
	}
	if nw > 0 {
		res.WriteReady = ready[nr:]
	}
	return res, false
}

// countReady counts the descriptors in fds polling ready for want (or
// hung up); bad reports one that is not open.
func (t *Thread) countReady(fds []int, want PollMask) (n int, bad bool) {
	for _, fd := range fds {
		f, errno := t.task.fds.Get(fd)
		if errno != OK {
			return 0, true
		}
		if f.Poll()&(want|PollHup) != 0 {
			n++
		}
	}
	return n, false
}

// appendReady appends the descriptors in fds polling ready for want (or
// hung up) to ready; countReady has found every one of them open.
func (t *Thread) appendReady(ready, fds []int, want PollMask) []int {
	for _, fd := range fds {
		if f, _ := t.task.fds.Get(fd); f.Poll()&(want|PollHup) != 0 {
			ready = append(ready, fd)
		}
	}
	return ready
}

// selectQueues gathers the wait queues a select with nothing ready blocks
// on, asking each file only for the queues matching the interest it was
// polled with (read-interest must not enqueue on write-side queues, and
// vice versa). The scan before it found every descriptor open.
func (t *Thread) selectQueues(req *SelectRequest) []*sim.WaitQueue {
	var queues []*sim.WaitQueue
	for _, fd := range req.ReadFDs {
		f, _ := t.task.fds.Get(fd)
		queues = append(queues, f.PollQueues(PollIn)...)
	}
	for _, fd := range req.WriteFDs {
		f, _ := t.task.fds.Get(fd)
		queues = append(queues, f.PollQueues(PollOut)...)
	}
	return queues
}
