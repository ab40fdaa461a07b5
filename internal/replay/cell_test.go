package replay

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// planted is a fake cell with a bug planted at one decision position:
// each stream consults its decider plantedDecisions times, and the run
// fails (kind Deadlock, key "p") only when position p is non-canonical
// in every stream. Positions p and q offer 1<<20 alternatives, so an
// Explorer almost surely perturbs them; the rest offer 2, so about half
// of them are perturbed too and minimization has noise to remove.
type planted struct {
	streams int
	p       uint64
	// q, when non-zero, plants a second bug: stream 0 non-canonical at
	// q fails with finding other, reported only when p's bug is not.
	q     uint64
	other Finding
	// runs counts executions; with limit > 0, runs after the limit'th
	// report no findings (a cell that stops reproducing).
	runs  *int
	limit int
}

const plantedDecisions = 16

type plantedOutcome struct {
	digest   uint64
	findings []Finding
}

func (o *plantedOutcome) Digest() uint64      { return o.digest }
func (o *plantedOutcome) Findings() []Finding { return o.findings }

func (c planted) Streams() int { return c.streams }

func (c planted) Run(decs []sim.Decider) Outcome {
	*c.runs++
	d := NewDigest()
	pHit, qHit := true, false
	for k, dec := range decs {
		for pos := uint64(0); pos < plantedDecisions; pos++ {
			n := 2
			if pos == c.p || pos == c.q {
				n = 1 << 20
			}
			idx := 0
			if dec != nil {
				idx = dec.Decide(sim.DecisionWake, "planted", n, 0)
			}
			d.U64(uint64(idx))
			pHit = pHit && (pos != c.p || idx != 0)
			qHit = qHit || (k == 0 && c.q != 0 && pos == c.q && idx != 0)
		}
	}
	o := &plantedOutcome{digest: d.Sum()}
	switch {
	case c.limit > 0 && *c.runs > c.limit:
	case pHit:
		o.findings = []Finding{{Kind: Deadlock, Key: "p", Detail: "planted bug at p"}}
	case qHit:
		o.findings = []Finding{c.other}
	}
	return o
}

func (c planted) Artifact() *Artifact {
	return &Artifact{Version: ArtifactVersion, Kind: KindSoak, Schedule: "planted", Cell: &CellRef{Bench: "planted"}}
}

// exploreOne explores a single planted cell for one round and loads the
// artifact its failure wrote.
func exploreOne(t *testing.T, c planted) *Artifact {
	t.Helper()
	rep := Explore(Suite{Name: "planted", Cells: []Cell{c}}, 1, 1, t.TempDir())
	if len(rep.Artifacts) != 1 {
		t.Fatalf("explore wrote %d artifacts (findings %q), want 1", len(rep.Artifacts), rep.Findings)
	}
	a, err := Load(rep.Artifacts[0])
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestExploreMinimizesPlantedFailure drives the driver end to end on a
// planted bug: exploration finds it, minimization shrinks every
// stream's log to the one load-bearing choice, and the artifact replays
// to its recorded digest.
func TestExploreMinimizesPlantedFailure(t *testing.T) {
	for _, streams := range []int{1, 2} {
		c := planted{streams: streams, p: 11, runs: new(int)}
		a := exploreOne(t, c)
		for k, log := range a.logs(streams) {
			if len(log) != 1 || log[0].Pos != c.p {
				t.Errorf("%d streams: stream %d minimized to %v, want the single choice at %d", streams, k, log, c.p)
			}
		}
		if a.Note != "planted bug at p" {
			t.Errorf("%d streams: note %q", streams, a.Note)
		}
		o, _, err := Replay(c, a)
		if err != nil {
			t.Fatalf("%d streams: %v", streams, err)
		}
		if len(o.Findings()) != 1 {
			t.Errorf("%d streams: minimized artifact replays with findings %v", streams, o.Findings())
		}
	}
}

// TestExploreFallsBackWhenRerunStopsReproducing pins the fallback: when
// the rerun under the minimized logs no longer fails, the artifact
// carries the original explored recording, which still replays.
func TestExploreFallsBackWhenRerunStopsReproducing(t *testing.T) {
	runs := new(int)
	exploreOne(t, planted{streams: 2, p: 11, runs: runs})
	// The rerun is the exploration's last run: let every run before it
	// reproduce and the rerun itself stop.
	c := planted{streams: 2, p: 11, runs: new(int), limit: *runs - 1}
	a := exploreOne(t, c)
	_, orig := Record(planted{streams: 2, p: 11, runs: new(int)}, 1, &Explorer{Seed: 1}, &Explorer{Seed: 2})
	if !reflect.DeepEqual(a.logs(2), orig.logs(2)) || a.Digest != orig.Digest {
		t.Fatalf("artifact is not the original recording: logs %v digest %s, want %v %s",
			a.logs(2), a.Digest, orig.logs(2), orig.Digest)
	}
	if len(a.Decisions) < 2 {
		t.Fatalf("original recording has %d choices; the fallback is indistinguishable from a minimized log", len(a.Decisions))
	}
	if _, _, err := Replay(c, a); err != nil {
		t.Fatal(err)
	}
}

// TestMinimizeNeverMergesFindings plants two bugs in one schedule and
// checks minimization keeps reproducing the first one: dropping p's
// choice surfaces q's bug, which differs in kind (or only in key) and
// must not count as reproducing.
func TestMinimizeNeverMergesFindings(t *testing.T) {
	for _, other := range []Finding{
		{Kind: Leak, Key: "p", Detail: "planted bug at q"},
		{Kind: Deadlock, Key: "q", Detail: "planted bug at q"},
	} {
		c := planted{streams: 1, p: 11, q: 4, other: other, runs: new(int)}
		a := exploreOne(t, c)
		if len(a.Decisions) != 1 || a.Decisions[0].Pos != c.p || a.Note != "planted bug at p" {
			t.Errorf("other %+v: minimized to %v (note %q), want the single choice at %d", other, a.Decisions, a.Note, c.p)
		}
	}
}

// TestDigestFolds pins the one digest type: every record changes the
// sum (zero values and empty strings included), and string framing
// keeps adjacent strings from trading bytes.
func TestDigestFolds(t *testing.T) {
	if NewDigest().Sum() != EmptyDigest {
		t.Fatal("a fresh digest is not the empty fold")
	}
	fold := func(f func(d *Digest)) uint64 {
		d := NewDigest()
		f(d)
		return d.Sum()
	}
	for name, f := range map[string]func(*Digest){
		"u64(0)":   func(d *Digest) { d.U64(0) },
		"u64(1)":   func(d *Digest) { d.U64(1) },
		`str("")`:  func(d *Digest) { d.Str("") },
		`str("a")`: func(d *Digest) { d.Str("a") },
	} {
		if fold(f) == EmptyDigest {
			t.Errorf("%s left the sum at the empty fold", name)
		}
	}
	if fold(func(d *Digest) { d.U64(1) }) == fold(func(d *Digest) { d.U64(2) }) {
		t.Error("u64 values collide")
	}
	ab := fold(func(d *Digest) { d.Str("ab"); d.Str("c") })
	bc := fold(func(d *Digest) { d.Str("a"); d.Str("bc") })
	if ab == bc {
		t.Error(`str("ab")+str("c") == str("a")+str("bc"): strings are not framed`)
	}
}
