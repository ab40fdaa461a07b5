package sim

import "time"

// timerWheel holds sleeping Procs keyed on their virtual wakeup deadline.
//
// It replaces the old sleepers binary heap on the scheduler's hottest
// bookkeeping path. A sleep is usually cancelled (Wake) before it expires —
// pipes, ports, and select all arm timeouts they rarely consume — so the
// structure is optimized for O(1) insert and O(1) cancel: a hierarchy of
// slot arrays indexed by wakeup-time bits, each slot an intrusive
// doubly-linked list threaded through the Procs themselves (no per-entry
// allocation, the WaitQueue freelist idea taken one step further).
//
// Levels are non-cascading: an entry stays in the slot its deadline hashed
// to at insert time, and slots may therefore mix entries from different
// wheel rotations. Correctness never depends on slot assignment because
// the minimum is tracked explicitly: a cached min pointer, re-derived by
// scanning the occupied slots (per-level occupancy bitmaps make the scan
// proportional to live entries) whenever the current minimum leaves. The
// scheduler's (wakeAt, id) tie-break order is preserved exactly — the
// equivalence test pins the wheel's wake order against a sorted model.
//
// The floor (the last dispatched deadline) only grows: the discrete-event
// invariant guarantees every push happens from a Proc whose clock is at or
// past the last popped deadline, so deltas against the floor are
// non-negative and level selection is stable.
type timerWheel struct {
	slots [wheelLevels][wheelSlots]*Proc
	// occ marks non-empty slots, one bit per slot, per level.
	occ [wheelLevels]uint64
	// overflow collects deadlines beyond the outermost level's horizon
	// (~1 virtual second out); entries there are scanned like any slot.
	overflow *Proc
	// min caches the (wakeAt, id)-smallest entry; nil when empty.
	min *Proc
	// floor is the largest deadline ever dispatched (monotonic).
	floor time.Duration
	size  int
}

const (
	wheelLevels   = 3
	wheelSlots    = 64
	wheelSlotMask = wheelSlots - 1
	// wheelShift0 sets the innermost granularity: 1<<12 ns ≈ 4.1 µs per
	// slot, so level 0 spans ~262 µs, level 1 ~16.8 ms, level 2 ~1.07 s.
	wheelShift0    = 12
	wheelShiftStep = 6
	// wheelOverflow is the pseudo-level stored in Proc.twLevel for entries
	// on the overflow list; -1 means "not queued".
	wheelOverflow = wheelLevels
)

func newTimerWheel() *timerWheel {
	return &timerWheel{}
}

func (w *timerWheel) Len() int { return w.size }

// wheelLess is the scheduler's sleep order: (wakeAt, id).
//
//hot:noalloc
func wheelLess(a, b *Proc) bool {
	if a.wakeAt != b.wakeAt {
		return a.wakeAt < b.wakeAt
	}
	return a.id < b.id
}

// push inserts p, keyed on p.wakeAt. O(1).
//
//hot:noalloc
func (w *timerWheel) push(p *Proc) {
	d := p.wakeAt - w.floor
	if d < 0 {
		// Defensive: a deadline at or before the floor belongs in the
		// innermost level; the min scan still orders it correctly.
		d = 0
	}
	level := 0
	shift := uint(wheelShift0)
	for level < wheelLevels && d>>shift >= wheelSlots {
		level++
		shift += wheelShiftStep
	}
	if level == wheelLevels {
		p.twLevel = wheelOverflow
		p.twSlot = 0
		p.twPrev = nil
		p.twNext = w.overflow
		if w.overflow != nil {
			w.overflow.twPrev = p
		}
		w.overflow = p
	} else {
		slot := int(uint64(p.wakeAt)>>shift) & wheelSlotMask
		p.twLevel = int8(level)
		p.twSlot = int8(slot)
		p.twPrev = nil
		p.twNext = w.slots[level][slot]
		if p.twNext != nil {
			p.twNext.twPrev = p
		}
		w.slots[level][slot] = p
		w.occ[level] |= 1 << uint(slot)
	}
	w.size++
	if w.min == nil || wheelLess(p, w.min) {
		w.min = p
	}
}

// remove cancels p's pending wakeup. O(1) unless p is the cached minimum,
// in which case the next minimum is re-derived by scanning live entries.
//
//hot:noalloc
func (w *timerWheel) remove(p *Proc) {
	if p.twLevel < 0 {
		return
	}
	if p.twPrev != nil {
		p.twPrev.twNext = p.twNext
	} else if p.twLevel == wheelOverflow {
		w.overflow = p.twNext
	} else {
		w.slots[p.twLevel][p.twSlot] = p.twNext
		if p.twNext == nil {
			w.occ[p.twLevel] &^= 1 << uint(p.twSlot)
		}
	}
	if p.twNext != nil {
		p.twNext.twPrev = p.twPrev
	}
	p.twNext = nil
	p.twPrev = nil
	p.twLevel = -1
	w.size--
	if w.min == p {
		w.rescanMin()
	}
}

// peek returns the (wakeAt, id)-smallest sleeping Proc, or nil.
//
//hot:noalloc
func (w *timerWheel) peek() *Proc {
	return w.min
}

// popMin removes and returns the smallest entry, advancing the floor.
//
//hot:noalloc
func (w *timerWheel) popMin() *Proc {
	p := w.min
	if p == nil {
		return nil
	}
	if p.wakeAt > w.floor {
		w.floor = p.wakeAt
	}
	w.remove(p)
	return p
}

// rescanMin re-derives the cached minimum by walking every occupied slot.
// Cost is proportional to the number of sleeping Procs (small: bounded by
// live threads), and it only runs when the minimum itself leaves the wheel
// — cancels of non-minimal timers, the common case, never pay it.
//
//hot:noalloc
func (w *timerWheel) rescanMin() {
	var best *Proc
	for level := 0; level < wheelLevels; level++ {
		occ := w.occ[level]
		for occ != 0 {
			slot := trailingZeros64(occ)
			occ &= occ - 1
			for p := w.slots[level][slot]; p != nil; p = p.twNext {
				if best == nil || wheelLess(p, best) {
					best = p
				}
			}
		}
	}
	for p := w.overflow; p != nil; p = p.twNext {
		if best == nil || wheelLess(p, best) {
			best = p
		}
	}
	w.min = best
}

// trailingZeros64 is math/bits.TrailingZeros64, inlined here with the
// classic de Bruijn multiply so the package keeps its tiny import set.
//
//hot:noalloc
func trailingZeros64(x uint64) int {
	if x == 0 {
		return 64
	}
	return int(deBruijn64tab[(x&-x)*0x03f79d71b4ca8b09>>58])
}

var deBruijn64tab = [64]byte{
	0, 1, 56, 2, 57, 49, 28, 3, 61, 58, 42, 50, 38, 29, 17, 4,
	62, 47, 59, 36, 45, 43, 51, 22, 53, 39, 33, 30, 24, 18, 12, 5,
	63, 55, 48, 27, 60, 41, 37, 16, 46, 35, 44, 21, 52, 32, 23, 11,
	54, 26, 40, 15, 34, 20, 31, 10, 25, 14, 19, 9, 13, 8, 7, 6,
}
