// Package replay implements record/replay of scheduler decisions and
// DPOR-lite schedule exploration (the ROADMAP's DiOS-style
// reproducibility item).
//
// The simulator is deterministic given (seed, fault plan, workload)
// except at genuinely ambiguous points — equal-virtual-time picks in
// Sim.next, wake-order choices in WaitQueue, equal-clock
// continue-vs-yield ties — where the canonical (clock, id) / FIFO
// tie-break is one legal choice among several (see sim.DecisionKind).
// This package provides the three sim.Decider policies that make those
// points a first-class artifact:
//
//   - Recorder logs the non-canonical choices an execution makes (none,
//     when recording the canonical schedule) so the run can be replayed.
//   - Explorer perturbs every ambiguous point pseudo-randomly from a
//     seed, exercising wake orders and preemption interleavings the
//     canonical schedule never takes.
//   - Replayer replays a recorded choice sequence positionally.
//
// An Artifact (artifact.go) bundles a choice sequence with everything
// else a cell needs to re-execute bit-identically in isolation: the
// fault plan, the cell reference, and the recorded digest. cell.go is
// the one engine soak and diffcheck share on top of these: the Cell
// interface, Record, Replay, and the Explore driver with its
// minimization (minimize.go); digest.go is the one fingerprint fold.
package replay

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Choice records one non-canonical decision: at the Pos'th consulted
// decision point (0-based, in execution order), alternative Index was
// taken instead of the canonical 0. Canonical decisions are implicit,
// so the canonical schedule's choice log is empty and a lightly
// perturbed schedule's log is proportional to the perturbation — which
// is what makes delta-debug minimization over the log meaningful.
type Choice struct {
	Pos   uint64 `json:"pos"`
	Index int    `json:"index"`
}

// RecentLimit bounds the Recorder's recent-decision ring (the "last K
// decisions" a deadlock report appends).
const RecentLimit = 16

// recentEntry is one formatted-on-demand ring slot.
type recentEntry struct {
	kind   sim.DecisionKind
	where  string
	n      int
	chosen int
	at     time.Duration
}

// Recorder is a sim.Decider that delegates each decision to an inner
// policy (or takes the canonical choice when inner is nil) and records
// the outcome: a sparse log of non-canonical choices, the total
// decision count, and a bounded ring of recent decisions for deadlock
// diagnostics.
type Recorder struct {
	inner   sim.Decider
	count   uint64
	choices []Choice
	recent  [RecentLimit]recentEntry
	seen    int
}

// NewRecorder wraps inner (nil = record the canonical schedule).
func NewRecorder(inner sim.Decider) *Recorder {
	return &Recorder{inner: inner}
}

// Decide implements sim.Decider.
func (r *Recorder) Decide(kind sim.DecisionKind, where string, n int, at time.Duration) int {
	idx := 0
	if r.inner != nil {
		idx = r.inner.Decide(kind, where, n, at)
		if idx < 0 || idx >= n {
			idx = n - 1
		}
	}
	if idx != 0 {
		r.choices = append(r.choices, Choice{Pos: r.count, Index: idx})
	}
	r.recent[r.seen%RecentLimit] = recentEntry{kind: kind, where: where, n: n, chosen: idx, at: at}
	r.seen++
	r.count++
	return idx
}

// Count returns how many decision points were consulted.
func (r *Recorder) Count() uint64 { return r.count }

// Choices returns the recorded non-canonical choices, oldest first. The
// returned slice is the Recorder's own; copy before mutating.
func (r *Recorder) Choices() []Choice { return r.choices }

// RecentDecisions implements sim.DecisionLister: the last RecentLimit
// decisions, oldest first, formatted one per line.
func (r *Recorder) RecentDecisions() []string {
	k := r.seen
	if k > RecentLimit {
		k = RecentLimit
	}
	out := make([]string, 0, k)
	for i := r.seen - k; i < r.seen; i++ {
		e := r.recent[i%RecentLimit]
		mark := ""
		if e.chosen != 0 {
			mark = " [non-canonical]"
		}
		out = append(out, fmt.Sprintf("#%d %s at %v %q: chose %d of %d%s",
			i, e.kind, e.at, e.where, e.chosen, e.n, mark))
	}
	return out
}

// Explorer is a sim.Decider that perturbs every ambiguous point
// pseudo-randomly: decision i takes alternative mix(Seed, i, kind) % n.
// It is a pure function of (Seed, consultation order), so the same seed
// against the same workload yields the same perturbed schedule — an
// explored run is as replayable as a canonical one, and wrapping an
// Explorer in a Recorder captures its choices as an artifact.
type Explorer struct {
	// Seed selects the perturbation.
	Seed uint64
	n    uint64
}

// Decide implements sim.Decider.
func (e *Explorer) Decide(kind sim.DecisionKind, where string, n int, at time.Duration) int {
	e.n++
	return int(mix(e.Seed, e.n, uint64(kind)) % uint64(n))
}

// Replayer is a sim.Decider that replays a recorded choice sequence
// positionally: decision i takes the logged index for position i, or
// the canonical 0 when no choice was logged. Out-of-range indices —
// possible only when the replayed execution has diverged from the
// recording, e.g. during minimization trials that deliberately drop
// choices — clamp to the last alternative rather than panicking, so a
// divergent trial still runs to completion and simply fails the digest
// comparison.
type Replayer struct {
	count   uint64
	choices map[uint64]int
}

// NewReplayer builds a Replayer for a choice sequence.
func NewReplayer(choices []Choice) *Replayer {
	m := make(map[uint64]int, len(choices))
	for _, c := range choices {
		m[c.Pos] = c.Index
	}
	return &Replayer{choices: m}
}

// Decide implements sim.Decider.
func (r *Replayer) Decide(kind sim.DecisionKind, where string, n int, at time.Duration) int {
	idx := r.choices[r.count]
	r.count++
	if idx < 0 || idx >= n {
		idx = n - 1
	}
	return idx
}

// mix hashes three words into one (splitmix64 over a fnv-style fold;
// the same idiom as internal/fault's decision function).
func mix(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
