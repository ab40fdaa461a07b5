package diffcheck

import (
	"reflect"
	"testing"

	"repro/internal/replay"
)

// TestRecordReplayFiftySeeds is the tentpole criterion on the persona
// oracle: fifty seeds' pair runs each record to an artifact that —
// after a full encode/decode round trip through the file format —
// replays to the exact same pair digest and decision count. No pair
// digest may be the empty fold.
func TestRecordReplayFiftySeeds(t *testing.T) {
	dir := t.TempDir()
	for seed := uint64(1); seed <= 50; seed++ {
		o, a := replay.Record(newPair(seed), 0)
		if d := o.Digest(); d == 0 || d == replay.EmptyDigest {
			t.Errorf("seed %d: pair digest %016x folded nothing", seed, d)
		}
		path, err := a.Save(dir)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replay.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := CellFor(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := replay.Replay(c, b); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		} else if got.DecisionCount != a.DecisionCount {
			t.Errorf("seed %d: replayed %d decisions, recorded %d", seed, got.DecisionCount, a.DecisionCount)
		}
	}
}

// TestPairDigestJobsInvariant pins exploration (and with it the pair
// digest) to host parallelism: jobs=1 and jobs=4 must agree, and two
// identical runs must agree (explorer determinism).
func TestPairDigestJobsInvariant(t *testing.T) {
	dir := t.TempDir()
	a := replay.Explore(Suite(24), 2, 1, dir)
	b := replay.Explore(Suite(24), 2, 1, dir)
	c := replay.Explore(Suite(24), 2, 4, dir)
	for _, r := range []*replay.Report{b, c} {
		if r.Digest != a.Digest {
			t.Errorf("explore digest diverged: %016x vs %016x", r.Digest, a.Digest)
		}
		if r.Decisions != a.Decisions || r.Perturbed != a.Perturbed || r.Runs != a.Runs {
			t.Errorf("explore totals diverged: %+v vs %+v", r, a)
		}
		if len(r.Findings) != len(a.Findings) {
			t.Errorf("explore findings diverged: %v vs %v", r.Findings, a.Findings)
		}
	}
}

// TestRecordingDoesNotChangeReport pins canonical equivalence on the
// oracle: each seed's recorded pair (what Run executes) filters to the
// same divergences and allowlist hits as the unrecorded CompareProgram.
func TestRecordingDoesNotChangeReport(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		o, _ := replay.Record(newPair(seed), 0)
		pr := o.(*pairRun)
		divs, hits := Filter(CompareProgram(seed, Generate(seed), PlanFor(seed)), DefaultAllowlist())
		if !reflect.DeepEqual(pr.divs, divs) || !reflect.DeepEqual(pr.hits, hits) {
			t.Errorf("seed %d: recording changed the comparison:\n%v %v\nvs\n%v %v", seed, pr.divs, pr.hits, divs, hits)
		}
	}
}

// TestReplayArtifactValidation pins artifact validation.
func TestReplayArtifactValidation(t *testing.T) {
	if _, err := CellFor(&replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindSoak}); err == nil {
		t.Error("soak artifact accepted by diffcheck replay")
	}
	if _, err := CellFor(&replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindDiffcheck}); err == nil {
		t.Error("artifact without seed accepted")
	}
}
