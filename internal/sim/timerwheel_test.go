package sim

import (
	"sort"
	"testing"
	"time"
)

// twRand is a tiny seeded splitmix64 so the equivalence test is
// deterministic across hosts (same idiom as internal/fault).
type twRand uint64

func (r *twRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	x := uint64(*r)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sleepModel is the reference the timer wheel is checked against: a
// slice kept sorted by (wakeAt, id), the wake order the scheduler
// promises. It shares no code with the wheel.
type sleepModel []*Proc

func sleepsBefore(a, b *Proc) bool {
	if a.wakeAt != b.wakeAt {
		return a.wakeAt < b.wakeAt
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

// TestTimerWheelEquivalence drives the wheel and the sorted-slice model
// with an identical randomized sequence of arms, cancels, and expiries,
// and asserts they agree on the minimum at every step and pop in the
// same (wakeAt, id) order.
func TestTimerWheelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xdead} {
		wheel := newTimerWheel()
		model := &sleepModel{}
		rng := twRand(seed)

		var live []*Proc
		nextID := 0
		floor := time.Duration(0)

		arm := func() {
			// Deadlines span all wheel levels plus the overflow list, and
			// occasionally land exactly on the floor (ties + below-floor
			// defensive path). Duplicate wakeAts exercise the id tiebreak.
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
			p := &Proc{id: nextID, wakeAt: floor + d, heapIndex: -1, twLevel: -1}
			nextID++
			wheel.push(p)
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
			wheel.remove(p)
			model.remove(p)
		}
		expire := func() {
			if model.Len() == 0 {
				return
			}
			want := model.pop()
			got := wheel.popMin()
			if got != want {
				t.Fatalf("seed %d: popMin = proc %d @%v, model says proc %d @%v",
					seed, got.id, got.wakeAt, want.id, want.wakeAt)
			}
			if want.wakeAt < floor {
				t.Fatalf("seed %d: wake order went backwards: %v < floor %v", seed, want.wakeAt, floor)
			}
			floor = want.wakeAt
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
			if wheel.Len() != model.Len() {
				t.Fatalf("seed %d step %d: wheel Len %d != model Len %d", seed, step, wheel.Len(), model.Len())
			}
			wantMin := (*Proc)(nil)
			if model.Len() > 0 {
				wantMin = model.peek()
			}
			if got := wheel.peek(); got != wantMin {
				t.Fatalf("seed %d step %d: peek mismatch", seed, step)
			}
		}
		// Drain: the full remaining population must pop in identical order.
		for model.Len() > 0 {
			expire()
		}
		if wheel.Len() != 0 || wheel.peek() != nil {
			t.Fatalf("seed %d: wheel not empty after drain", seed)
		}
	}
}

// TestTimerWheelRemoveIdempotent pins the cancel-twice and cancel-unarmed
// cases the scheduler relies on (wake of an already-woken Proc).
func TestTimerWheelRemoveIdempotent(t *testing.T) {
	w := newTimerWheel()
	p := &Proc{id: 1, wakeAt: time.Millisecond, heapIndex: -1, twLevel: -1}
	w.remove(p) // never armed: no-op
	w.push(p)
	w.remove(p)
	w.remove(p) // already cancelled: no-op
	if w.Len() != 0 || w.peek() != nil {
		t.Fatalf("wheel not empty after idempotent removes: len %d", w.Len())
	}
}
