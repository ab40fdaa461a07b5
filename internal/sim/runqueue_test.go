package sim

import (
	"sort"
	"testing"
	"time"
)

// rqRand is a tiny seeded splitmix64 so the equivalence test is
// deterministic across hosts (same idiom as internal/fault).
type rqRand uint64

func (r *rqRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	x := uint64(*r)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sleepModel is the reference the run queue is checked against: a
// slice kept sorted by (due, id), the wake order the scheduler
// promises. It shares no code with the heap.
type sleepModel []*Proc

func sleepsBefore(a, b *Proc) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.id < b.id
}

func (m *sleepModel) Len() int { return len(*m) }

func (m *sleepModel) push(p *Proc) {
	i := sort.Search(len(*m), func(i int) bool { return sleepsBefore(p, (*m)[i]) })
	*m = append(*m, nil)
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = p
}

func (m *sleepModel) remove(p *Proc) {
	for i, q := range *m {
		if q == p {
			*m = append((*m)[:i], (*m)[i+1:]...)
			return
		}
	}
}

func (m *sleepModel) pop() *Proc {
	p := (*m)[0]
	*m = (*m)[1:]
	return p
}

func (m *sleepModel) peek() *Proc { return (*m)[0] }

// TestRunQueueEquivalence drives the run queue and the sorted-slice
// model with an identical randomized sequence of arms, cancels, and
// expiries, and asserts they agree on the root at every step and pop in
// the same (due, id) order.
func TestRunQueueEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xdead} {
		rq := &procHeap{}
		model := &sleepModel{}
		rng := rqRand(seed)

		var live []*Proc
		nextID := 0
		floor := time.Duration(0)

		arm := func() {
			// Deadlines span microseconds to seconds and occasionally
			// land exactly on the floor; duplicate deadlines exercise the
			// id tiebreak.
			var d time.Duration
			switch rng.next() % 5 {
			case 0:
				d = time.Duration(rng.next() % uint64(100*time.Microsecond))
			case 1:
				d = time.Duration(rng.next() % uint64(10*time.Millisecond))
			case 2:
				d = time.Duration(rng.next() % uint64(500*time.Millisecond))
			case 3:
				d = time.Duration(rng.next() % uint64(5*time.Second))
			case 4:
				d = 0
			}
			p := &Proc{id: nextID, due: floor + d, heapIndex: -1}
			nextID++
			rq.push(p, p.due)
			model.push(p)
			live = append(live, p)
		}
		cancel := func() {
			if len(live) == 0 {
				return
			}
			i := int(rng.next() % uint64(len(live)))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			rq.remove(p)
			model.remove(p)
		}
		expire := func() {
			if model.Len() == 0 {
				return
			}
			want := model.pop()
			got := rq.pop()
			if got != want {
				t.Fatalf("seed %d: pop = proc %d @%v, model says proc %d @%v",
					seed, got.id, got.due, want.id, want.due)
			}
			if want.due < floor {
				t.Fatalf("seed %d: wake order went backwards: %v < floor %v", seed, want.due, floor)
			}
			floor = want.due
			for i, p := range live {
				if p == want {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		}

		for step := 0; step < 5000; step++ {
			switch rng.next() % 4 {
			case 0, 1:
				arm()
			case 2:
				cancel()
			case 3:
				expire()
			}
			if rq.Len() != model.Len() {
				t.Fatalf("seed %d step %d: run queue Len %d != model Len %d", seed, step, rq.Len(), model.Len())
			}
			wantMin := (*Proc)(nil)
			if model.Len() > 0 {
				wantMin = model.peek()
			}
			if got := rq.min(); got != wantMin {
				t.Fatalf("seed %d step %d: root mismatch", seed, step)
			}
		}
		// Drain: the full remaining population must pop in identical order.
		for model.Len() > 0 {
			expire()
		}
		if rq.Len() != 0 || rq.min() != nil {
			t.Fatalf("seed %d: run queue not empty after drain", seed)
		}
	}
}

// TestRunQueueRemoveIdempotent pins the cancel-twice and cancel-unarmed
// cases the scheduler relies on (wake of an already-woken Proc).
func TestRunQueueRemoveIdempotent(t *testing.T) {
	rq := &procHeap{}
	p := &Proc{id: 1, heapIndex: -1}
	rq.remove(p) // never armed: no-op
	rq.push(p, time.Millisecond)
	rq.remove(p)
	rq.remove(p) // already cancelled: no-op
	if rq.Len() != 0 || rq.min() != nil {
		t.Fatalf("run queue not empty after idempotent removes: len %d", rq.Len())
	}
}
