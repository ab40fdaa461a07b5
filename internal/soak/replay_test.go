package soak

import (
	"testing"

	"repro/internal/replay"
)

// TestRecordReplayBitIdentical is the tentpole criterion: for every
// schedule in the soak matrix, every quick-battery cell records to an
// artifact that — after a full encode/decode round trip through the
// file format — replays to the exact same digest, decision count, and
// findings in isolation. No cell digest may be zero or the empty fold:
// a digest that folded nothing cannot tell two runs apart.
func TestRecordReplayBitIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, s := range Schedules() {
		refs := CellRefs(QuickTests(), false)
		for i, ref := range refs {
			a, rec := RecordCell(s, ref, nil, 0)
			if rec.Digest == 0 || rec.Digest == replay.EmptyDigest {
				t.Errorf("%s cell %d %s: digest %016x folded nothing", s.Name, i, ref, rec.Digest)
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
			o, got, err := replay.Replay(c, b)
			if err != nil {
				t.Errorf("%s cell %d %s: %v", s.Name, i, ref, err)
				continue
			}
			if got.DecisionCount != rec.DecisionCount {
				t.Errorf("%s cell %s: replayed %d decisions, recorded %d",
					s.Name, ref, got.DecisionCount, rec.DecisionCount)
			}
			if len(o.Findings()) != len(rec.Findings) {
				t.Errorf("%s cell %s: replayed findings %v, recorded %v",
					s.Name, ref, o.Findings(), rec.Findings)
			}
		}
	}
}

// TestRecordingDoesNotChangeDigest pins the canonical-equivalence
// property recording-by-default rests on: a recorded run and an
// unrecorded run of the same schedule produce identical digests. The
// decision-heavy daemon-crash schedule is the interesting case; clean
// is the control.
func TestRecordingDoesNotChangeDigest(t *testing.T) {
	for _, name := range []string{"clean", "daemon-crash"} {
		s, ok := ScheduleByName(name)
		if !ok {
			t.Fatalf("schedule %s missing", name)
		}
		opts := Options{Tests: QuickTests()}
		recorded := RunSchedule(s, opts)
		opts.NoRecord = true
		bare := RunSchedule(s, opts)
		if recorded.Digest != bare.Digest {
			t.Errorf("%s: recorded digest %016x != unrecorded %016x",
				name, recorded.Digest, bare.Digest)
		}
		if recorded.LatencyDigest != bare.LatencyDigest {
			t.Errorf("%s: recorded latency digest %016x != unrecorded %016x",
				name, recorded.LatencyDigest, bare.LatencyDigest)
		}
	}
}

// TestExploreDeterministic pins the explorer-determinism criterion:
// the same (schedule, rounds) exploration yields the same digest,
// decision totals, and findings on every run — and at any jobs level.
func TestExploreDeterministic(t *testing.T) {
	s, _ := ScheduleByName("daemon-crash")
	suite := Suite(s, Options{Tests: QuickTests()})
	dir := t.TempDir()
	a := replay.Explore(suite, 2, 1, dir)
	b := replay.Explore(suite, 2, 1, dir)
	c := replay.Explore(suite, 2, 4, dir)
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
	if a.Decisions == 0 || a.Perturbed == 0 {
		t.Errorf("explorer consulted %d decisions, perturbed %d — not exploring",
			a.Decisions, a.Perturbed)
	}
}

// TestExploredRunReplaysBitIdentical closes the loop on perturbed
// schedules: a cell recorded under an Explorer replays bit-identically
// from its artifact, non-canonical choices and all.
func TestExploredRunReplaysBitIdentical(t *testing.T) {
	s, _ := ScheduleByName("daemon-crash")
	ref := replay.CellRef{Bench: "mach"}
	a, rec := RecordCell(s, ref, &replay.Explorer{Seed: 5}, 5)
	if len(a.Decisions) == 0 {
		t.Fatal("explored mach cell took no non-canonical choices; perturbation is dead")
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CellFor(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := replay.Replay(c, b); err != nil {
		t.Fatalf("explored replay of %016x: %v", rec.Digest, err)
	}
}

// TestCheckedInArtifactReplays replays the perturbed-schedule fixture
// checked into testdata: the daemon-crash mach cell under explore seed
// 5, a schedule with ~50 non-canonical wake/next/preempt choices the
// canonical run never takes. The soak invariants (no deadlock, no
// leak, supervision intact) must keep holding on this schedule as the
// kernel evolves — if this test starts reporting findings, an ordering
// bug regressed, and the fixture is its one-command reproducer. The
// digest is deliberately NOT asserted: it legitimately shifts with
// behavior changes; the invariants may not.
func TestCheckedInArtifactReplays(t *testing.T) {
	a, err := replay.Load("testdata/explored-daemon-crash-mach-x5.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Decisions) == 0 {
		t.Fatal("fixture has no non-canonical choices; it no longer perturbs anything")
	}
	c, err := CellFor(a)
	if err != nil {
		t.Fatal(err)
	}
	o, rep := replay.Record(c, a.ExploreSeed, replay.NewReplayer(a.Decisions))
	if len(o.Findings()) > 0 {
		t.Fatalf("perturbed schedule regressed:\n%s", o.Findings())
	}
	if rep.DecisionCount == 0 {
		t.Fatal("replay consulted no decisions; recording is dead")
	}
}

// TestReplayCellValidation pins artifact validation.
func TestReplayCellValidation(t *testing.T) {
	if _, err := CellFor(&replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindDiffcheck}); err == nil {
		t.Error("diffcheck artifact accepted by soak replay")
	}
	if _, err := CellFor(&replay.Artifact{Version: replay.ArtifactVersion, Kind: replay.KindSoak}); err == nil {
		t.Error("artifact without cell/plan accepted")
	}
}
