package diffcheck

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
)

// foldCell folds everything Compare looks at — the executor log, the
// normalized per-process event streams, the counters, and the cell
// health signals — so equal pair digests imply equal comparisons.
func foldCell(d *replay.Digest, r *CellResult) {
	d.Str(r.Err)
	d.Str(r.LeakErr)
	d.U64(r.Dropped)
	d.U64(uint64(len(r.Log)))
	for _, line := range r.Log {
		d.Str(line)
	}
	for _, p := range r.Procs {
		d.Str(p)
		for _, line := range r.Events[p] {
			d.Str(line)
		}
	}
	names := make([]string, 0, len(r.Counters))
	for n := range r.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.Str(n)
		d.U64(r.Counters[n])
	}
}

// pair is one seed's persona pair as a replay.Cell: the android cell
// consumes decision stream 0 and the iOS cell stream 1 (the personas
// never share a simulator, so each side has its own stream).
type pair struct {
	seed uint64
	p    *Program
	plan fault.Plan
}

func newPair(seed uint64) pair { return pair{seed: seed, p: Generate(seed), plan: PlanFor(seed)} }

func (c pair) Streams() int { return 2 }

func (c pair) Run(decs []sim.Decider) replay.Outcome {
	return runPair(c.seed, c.p, c.plan, decs[0], decs[1])
}

func (c pair) Artifact() *replay.Artifact {
	return &replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindDiffcheck, Seed: c.seed}
}

// pairRun is one pair execution: the residual (unallowlisted)
// divergences, the allowlist hits, and the pair digest replay asserts
// against. It is the replay.Outcome of a pair.
type pairRun struct {
	divs   []Divergence
	hits   map[string]int
	digest uint64
}

func (r *pairRun) Digest() uint64 { return r.digest }

func (r *pairRun) Findings() []replay.Finding {
	fs := make([]replay.Finding, len(r.divs))
	for i, d := range r.divs {
		fs[i] = replay.Finding{Kind: replay.Divergence, Key: d.Sig, Detail: d.String()}
	}
	return fs
}

// runPair executes the program under both personas with the given
// deciders (android cell first, then iOS), diffs, and filters the
// divergences through DefaultAllowlist.
func runPair(seed uint64, p *Program, plan fault.Plan, decA, decI sim.Decider) *pairRun {
	a := RunCellDecided(p, false, plan, decA)
	i := RunCellDecided(p, true, plan, decI)
	pr := &pairRun{}
	pr.divs, pr.hits = Filter(Compare(seed, a, i), DefaultAllowlist())
	d := replay.NewDigest()
	d.U64(seed)
	foldCell(d, a)
	foldCell(d, i)
	pr.digest = d.Sum()
	return pr
}

// Suite is the persona pairs of seeds 1..seeds for replay.Explore.
func Suite(seeds int) replay.Suite {
	cells := make([]replay.Cell, seeds)
	for i := range cells {
		cells[i] = newPair(uint64(i + 1))
	}
	return replay.Suite{Name: "diffcheck", Seed: uint64(seeds), Cells: cells}
}

// CellFor rebuilds the persona pair a diffcheck artifact recorded (the
// seed regenerates program and fault plan), for replay.Replay.
func CellFor(a *replay.Artifact) (replay.Cell, error) {
	if a.Kind != replay.KindDiffcheck {
		return nil, fmt.Errorf("diffcheck: artifact kind %q is not %q", a.Kind, replay.KindDiffcheck)
	}
	if a.Seed == 0 {
		return nil, fmt.Errorf("diffcheck: artifact has no program seed")
	}
	return newPair(a.Seed), nil
}
