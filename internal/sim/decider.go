package sim

import (
	"fmt"
	"time"
)

// DecisionKind classifies the scheduler's genuinely ambiguous choice
// points — the only places where the canonical (clock, id) / FIFO order
// is a tie-break convention rather than a semantic requirement. A
// correct workload must produce the same results whichever alternative
// is taken; internal/replay records the choices for bit-identical
// replay and perturbs them to hunt ordering bugs.
type DecisionKind uint8

const (
	// DecisionNext is an equal-virtual-time pick in Sim.next: two or more
	// ready/sleeping Procs share the minimal key and any of them could
	// legally run first. Candidates are presented in ascending id order,
	// so index 0 is the canonical choice.
	DecisionNext DecisionKind = iota
	// DecisionWake is a wake-order choice in WaitQueue.WakeOne: two or
	// more distinct Procs are waiting and any could legally be woken
	// first. Candidates are presented in FIFO (longest-waiting first)
	// order, so index 0 is the canonical choice.
	DecisionWake
	// DecisionPreempt is an equal-clock continue-vs-yield tie in
	// maybePreempt: the running Proc and some other Proc share a clock,
	// and either may run next. n is always 2; index 0 keeps the canonical
	// (clock, id) outcome, index 1 flips it.
	DecisionPreempt
	// NumDecisionKinds bounds the kinds (sizing arrays).
	NumDecisionKinds
)

func (k DecisionKind) String() string {
	switch k {
	case DecisionNext:
		return "next"
	case DecisionWake:
		return "wake"
	case DecisionPreempt:
		return "preempt"
	}
	return fmt.Sprintf("decision(%d)", int(k))
}

// Decider resolves ambiguous scheduler choices. Decide returns the index
// of the chosen alternative in [0, n); out-of-range returns are clamped.
// Index 0 is always the canonical choice, so a Decider that returns 0
// everywhere reproduces the undecided schedule exactly. where names the
// decision site (the canonical candidate's Proc name for next/preempt,
// the queue name for wake) and at is the virtual time of the decision;
// both are diagnostics only and must not influence a replaying Decider.
//
// Deciders are consulted only when n > 1 — unambiguous points cost a
// single nil check, exactly like the Sink trace hook, so an undecided
// simulation is bit-identical (and allocation-identical) to one with no
// Decider support compiled in.
type Decider interface {
	Decide(kind DecisionKind, where string, n int, at time.Duration) int
}

// DecisionLister is an optional Decider extension: a Decider that keeps
// a bounded log of recent decisions exposes it here, and Sim.Run copies
// it into ErrDeadlock so deadlock reports end with the scheduler
// choices that led there.
type DecisionLister interface {
	RecentDecisions() []string
}

// SetDecider installs a scheduler Decider. Pass nil to disable (the
// default): with no Decider the scheduler takes every canonical choice
// with zero overhead beyond a nil check.
func (s *Sim) SetDecider(d Decider) { s.decider = d }

// nextDecided is Sim.next with the equal-time tie handed to the Decider:
// all queued Procs (ready or sleeping) sharing the root's key are
// enumerated in ascending id order and the Decider picks one. With a
// single candidate no decision is consulted and the pick equals next()'s.
//
//hot:noalloc
func (s *Sim) nextDecided() *Proc {
	root := s.runq.min()
	if root == nil {
		return nil
	}
	minT := root.due
	// A linear scan: the run queue holds a handful of Procs.
	s.decCands = s.decCands[:0]
	for _, p := range s.runq.procs {
		if p.due == minT {
			s.decCands = append(s.decCands, p)
		}
	}
	// Insertion sort by id: candidate sets are tiny (procs sharing one
	// virtual instant), and sort.Slice would allocate its closure.
	for i := 1; i < len(s.decCands); i++ {
		p := s.decCands[i]
		j := i - 1
		for j >= 0 && s.decCands[j].id > p.id {
			s.decCands[j+1] = s.decCands[j]
			j--
		}
		s.decCands[j+1] = p
	}
	pick := s.decCands[0]
	if len(s.decCands) > 1 {
		idx := s.decider.Decide(DecisionNext, pick.name, len(s.decCands), minT)
		if idx > 0 && idx < len(s.decCands) {
			pick = s.decCands[idx]
		}
	}
	s.runq.remove(pick)
	if pick.state == StateSleeping {
		expire(pick)
	}
	return pick
}

// maybePreemptDecided is maybePreempt with the equal-clock tie handed to
// the Decider: when the running Proc and the earliest waiting Proc share
// a clock, either outcome (continue or yield) is legal, and the Decider
// picks whether to keep the canonical one.
//
//hot:noalloc
func (s *Sim) maybePreemptDecided(p *Proc) {
	strict, tie := s.contention(p)
	if strict {
		// Someone has a strictly earlier clock: yielding is mandatory,
		// not a decision point.
		s.preempt(p)
		return
	}
	if !tie {
		return
	}
	yield := !s.stillMin(p)
	if s.decider.Decide(DecisionPreempt, p.name, 2, p.now) == 1 {
		yield = !yield
	}
	if yield {
		s.preempt(p)
	}
}

// contention reports whether any queued Proc has a strictly earlier key
// than p's clock (strict) or shares it exactly (tie). The root is
// sufficient: no other entry can beat it.
//
//hot:noalloc
func (s *Sim) contention(p *Proc) (strict, tie bool) {
	q := s.runq.min()
	if q == nil {
		return false, false
	}
	return q.due < p.now, q.due == p.now
}

// preempt makes p runnable and hands the token over (the slow path of
// maybePreempt, shared with the decided variant).
//
//hot:noalloc
func (s *Sim) preempt(p *Proc) {
	p.state = StateRunnable
	s.runq.push(p, p.now)
	s.yieldAndWait(p)
}
