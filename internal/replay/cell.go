package replay

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// FindingKind classifies a Finding. The set is closed: minimization
// keeps a trial schedule only when its first finding has the original's
// kind and key, so shrinking one bug's schedule can never trade it for
// another bug.
type FindingKind uint8

// Finding kinds.
const (
	// Setup: the cell could not be built, booted or started.
	Setup FindingKind = iota + 1
	// Deadlock: the simulation wedged with processes still parked.
	Deadlock
	// Leak: the post-run kernel leak check failed.
	Leak
	// Supervision: launchd lost services (crashes outran respawns).
	Supervision
	// Foreground: jetsam killed a foreground task.
	Foreground
	// Incomplete: a fault-free workload did not run to completion.
	Incomplete
	// Divergence: the two personas disagreed after normalization.
	Divergence
)

// Finding is one invariant violation a cell run hit.
type Finding struct {
	Kind FindingKind
	// Key narrows Kind where one cell can fail several distinguishable
	// ways of the same kind (a divergence signature); "" otherwise.
	Key string
	// Detail is the report line.
	Detail string
}

func (f Finding) String() string { return f.Detail }

// Outcome is what one cell run produced.
type Outcome interface {
	// Digest fingerprints everything deterministic about the run.
	Digest() uint64
	// Findings are the run's invariant violations (empty = passed).
	Findings() []Finding
}

// Cell is one isolated, re-executable unit of a soak schedule or the
// persona oracle: the thing a replay artifact names and a schedule
// exploration perturbs. A cell consumes one or two independent
// decision streams (a soak cell has one simulator, a diffcheck persona
// pair two), in the order the artifact stores their logs: Decisions,
// then DecisionsIOS.
type Cell interface {
	// Streams is the number of decision streams Run consumes.
	Streams() int
	// Run executes the cell once; stream k consults decs[k], and a nil
	// decider takes the canonical schedule.
	Run(decs []sim.Decider) Outcome
	// Artifact returns the cell's identity: everything a replay needs
	// except the choice logs and the digest, which Record fills in.
	Artifact() *Artifact
}

// Record runs c once with every decision stream recorded, stream k
// delegating to inner[k] (absent or nil: the canonical schedule). It
// returns the outcome and the cell's artifact completed with the
// explore seed, choice logs, decision count, digest and, for a failing
// run, the first finding as its note.
func Record(c Cell, exploreSeed uint64, inner ...sim.Decider) (Outcome, *Artifact) {
	recs := make([]*Recorder, c.Streams())
	decs := make([]sim.Decider, len(recs))
	for k := range recs {
		var in sim.Decider
		if k < len(inner) {
			in = inner[k]
		}
		recs[k] = NewRecorder(in)
		decs[k] = recs[k]
	}
	o := c.Run(decs)
	a := c.Artifact()
	a.ExploreSeed = exploreSeed
	logs := make([][]Choice, len(recs))
	for k, r := range recs {
		logs[k] = r.Choices()
		a.DecisionCount += r.Count()
	}
	a.setLogs(logs)
	a.SetDigest(o.Digest())
	if fs := o.Findings(); len(fs) > 0 {
		a.Note = fs[0].Detail
	}
	return o, a
}

// replayers builds one Replayer per choice log.
func replayers(logs [][]Choice) []sim.Decider {
	decs := make([]sim.Decider, len(logs))
	for k, l := range logs {
		decs[k] = NewReplayer(l)
	}
	return decs
}

// Replay re-executes an artifact's cell in isolation under its recorded
// choice logs. It returns the outcome and the fresh recording, and an
// error when the replayed digest or decision count differs from the
// recorded one.
func Replay(c Cell, a *Artifact) (Outcome, *Artifact, error) {
	want, err := a.DigestValue()
	if err != nil {
		return nil, nil, err
	}
	o, got := Record(c, a.ExploreSeed, replayers(a.logs(c.Streams()))...)
	if d := o.Digest(); d != want {
		return o, got, fmt.Errorf("replay: digest mismatch: replayed %016x, recorded %016x", d, want)
	}
	if a.DecisionCount != 0 && got.DecisionCount != a.DecisionCount {
		return o, got, fmt.Errorf("replay: decision count diverged: replayed %d, recorded %d", got.DecisionCount, a.DecisionCount)
	}
	return o, got, nil
}

// Emit saves a failing run's artifact into dir and returns the report
// line naming the one command that reproduces it, plus the path ("" and
// a line saying so when the write failed).
func Emit(a *Artifact, dir string) (line, path string) {
	path, err := a.Save(dir)
	if err != nil {
		return fmt.Sprintf("%s: artifact write failed: %v", a.Label(), err), ""
	}
	return fmt.Sprintf("%s: reproduce with: cider replay %s", a.Label(), path), path
}

// Suite is a named set of cells explored together.
type Suite struct {
	// Name labels the suite in reports and opens its fingerprint.
	Name string
	// Seed identifies the suite's inputs (a fault-plan seed, a program
	// count); the fingerprint folds it after Name.
	Seed  uint64
	Cells []Cell
}

// Report summarizes a schedule exploration. It is a pure function of
// (suite, rounds): the same at any jobs level and on every host.
type Report struct {
	// Name echoes the suite's.
	Name string
	// Runs counts explored cell executions (minimization trials aside).
	Runs int
	// Decisions totals the decision points the runs consulted.
	Decisions uint64
	// Perturbed totals the non-canonical choices the runs took.
	Perturbed uint64
	// Findings are the invariant violations explored schedules hit, each
	// failing run's followed by the line naming its minimized artifact.
	Findings []string
	// Artifacts lists the artifact files written, one per failing run.
	Artifacts []string
	// Digest fingerprints the exploration: every (round, cell) digest
	// and perturbation count, in order.
	Digest uint64
}

// explored is one (round, cell) run as the report folds it.
type explored struct {
	digest, decisions, perturbed uint64
	findings                     []string
	artifact                     string
}

// Explore runs every cell of the suite under `rounds` seeded
// perturbations of its ambiguous scheduler decisions (DPOR-lite). In
// round r (from 1), stream k of an n-stream cell is perturbed by the
// Explorer seed n·(r−1)+k+1, so the streams of a cell and the rounds of
// a suite never share a perturbation. A run with findings is minimized
// (see minimize) and its artifact written into dir. Cells of a round
// run in parallel on jobs host workers and merge in cell order.
func Explore(s Suite, rounds, jobs int, dir string) *Report {
	rep := &Report{Name: s.Name}
	d := NewDigest()
	d.Str(s.Name)
	d.U64(s.Seed)
	for round := 1; round <= rounds; round++ {
		runs, _ := runner.Map(len(s.Cells), jobs, func(i int) (explored, error) {
			c := s.Cells[i]
			n := c.Streams()
			inner := make([]sim.Decider, n)
			for k := range inner {
				inner[k] = &Explorer{Seed: uint64(n*(round-1) + k + 1)}
			}
			o, a := Record(c, uint64(round), inner...)
			x := explored{digest: o.Digest(), decisions: a.DecisionCount, perturbed: a.perturbed()}
			if fs := o.Findings(); len(fs) > 0 {
				for _, f := range fs {
					x.findings = append(x.findings, f.Detail)
				}
				line, path := Emit(minimize(c, fs[0], a), dir)
				x.findings = append(x.findings, line)
				x.artifact = path
			}
			return x, nil
		})
		d.U64(uint64(round))
		for i, x := range runs {
			rep.Runs++
			rep.Decisions += x.decisions
			rep.Perturbed += x.perturbed
			rep.Findings = append(rep.Findings, x.findings...)
			if x.artifact != "" {
				rep.Artifacts = append(rep.Artifacts, x.artifact)
			}
			d.U64(uint64(i))
			d.U64(x.digest)
			d.U64(x.perturbed)
		}
	}
	rep.Digest = d.Sum()
	return rep
}
