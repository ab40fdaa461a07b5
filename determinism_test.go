// Determinism regression: the whole point of the virtual-time methodology
// is that a run is a pure function of its configuration. Running the
// Fig. 5 and Fig. 6 batteries sequentially (jobs=1) and sharded across 8
// host workers must produce bit-identical latencies, throughputs, and
// per-cell trace event streams — host parallelism may only change
// wall-clock time, never a simulated result. Any divergence means
// wall-clock time, map-iteration order, ambient randomness, or shared
// mutable state leaked into the simulation (the ciderlint wallclock
// analyzer guards the static side of this same invariant). These tests
// run under -race in `make verify`, so cross-cell data races in the
// engine or the benchmarks themselves also fail here.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lmbench"
	"repro/internal/passmark"
	"repro/internal/trace"
)

// compareSessions asserts two session slices carry bit-identical event
// streams, cell by cell.
func compareSessions(t *testing.T, seq, par []*trace.Session) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("sessions: %d sequential vs %d parallel", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if a == nil || b == nil {
			t.Fatalf("cell %d: missing session (seq=%v par=%v)", i, a != nil, b != nil)
		}
		if a.Label != b.Label {
			t.Fatalf("cell %d label %q vs %q", i, a.Label, b.Label)
		}
		ea, eb := a.Events(), b.Events()
		if len(ea) != len(eb) {
			t.Errorf("%s: %d events vs %d", a.Label, len(ea), len(eb))
			continue
		}
		diffs := 0
		for j := range ea {
			if ea[j] != eb[j] {
				if diffs == 0 {
					t.Errorf("%s: event %d diverged:\n  jobs=1: %+v\n  jobs=8: %+v", a.Label, j, ea[j], eb[j])
				}
				diffs++
			}
		}
		if diffs > 1 {
			t.Errorf("%s: %d events diverged in total", a.Label, diffs)
		}
	}
}

func TestFigure5Deterministic(t *testing.T) {
	tests := lmbench.AllTests()
	run := func(jobs int) (*lmbench.Report, []*trace.Session) {
		t.Helper()
		sessions := make([]*trace.Session, len(lmbench.Cells(tests)))
		rep, err := lmbench.RunFigure5(tests, lmbench.Options{
			Jobs: jobs,
			OnSystem: func(cell lmbench.Cell, sys *core.System) {
				s := sys.EnableTrace()
				s.Label = cell.Config.Name + "/" + cell.Test.Name
				sessions[cell.Index] = s
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, sessions
	}
	seqRep, seqSess := run(1)
	parRep, parSess := run(8)

	// Bit-identical latencies and failure states, in both directions.
	for test, byCfg := range seqRep.Latency {
		for cfg, want := range byCfg {
			if got := parRep.Latency[test][cfg]; got != want {
				t.Errorf("%s/%s: jobs=8 latency %v != jobs=1 %v", test, cfg, got, want)
			}
			if seqRep.Failed[test][cfg] != parRep.Failed[test][cfg] {
				t.Errorf("%s/%s: failure state differs between jobs=1 and jobs=8", test, cfg)
			}
		}
	}
	if len(seqRep.Latency) != len(parRep.Latency) {
		t.Errorf("runs measured %d vs %d tests", len(seqRep.Latency), len(parRep.Latency))
	}

	compareSessions(t, seqSess, parSess)
}

func TestFigure6Deterministic(t *testing.T) {
	tests := passmark.AllTests()
	confs := passmark.Configurations()
	run := func(jobs int) (*passmark.Report, []*trace.Session) {
		t.Helper()
		sessions := make([]*trace.Session, len(confs))
		rep, err := passmark.RunFigure6(tests, passmark.Options{
			Jobs: jobs,
			OnSystem: func(cell passmark.Cell, sys *core.System) {
				s := sys.EnableTrace()
				s.Label = cell.Config.Name
				sessions[cell.Index] = s
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, sessions
	}
	seqRep, seqSess := run(1)
	parRep, parSess := run(8)

	// Bit-identical throughput scores and error states.
	for test, byCfg := range seqRep.Score {
		for cfg, want := range byCfg {
			if got := parRep.Score[test][cfg]; got != want {
				t.Errorf("%s/%s: jobs=8 score %v != jobs=1 %v", test, cfg, got, want)
			}
			if (seqRep.Errors[test][cfg] == nil) != (parRep.Errors[test][cfg] == nil) {
				t.Errorf("%s/%s: error state differs between jobs=1 and jobs=8", test, cfg)
			}
		}
	}
	if len(seqRep.Score) != len(parRep.Score) {
		t.Errorf("runs measured %d vs %d tests", len(seqRep.Score), len(parRep.Score))
	}

	compareSessions(t, seqSess, parSess)
}
