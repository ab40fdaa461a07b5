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
	"repro/internal/figure"
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

// figures are the paper's two figure batteries, with how many cells a
// whole-battery run boots.
var figures = []struct {
	name  string
	run   func(group string, opts figure.Options) (*figure.Report, error)
	cells int
}{
	{"fig5", lmbench.Run, len(lmbench.Cells(lmbench.AllTests()))},
	{"fig6", passmark.Run, len(figure.Configurations())},
}

func TestFiguresDeterministic(t *testing.T) {
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			run := func(jobs int) (*figure.Report, []*trace.Session) {
				t.Helper()
				sessions := make([]*trace.Session, fig.cells)
				rep, err := fig.run("", figure.Options{
					Jobs: jobs,
					OnSystem: func(cell figure.Cell, sys *core.System) {
						s := sys.EnableTrace()
						s.Label = cell.Config.Name + "/" + cell.Test
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

			// Bit-identical values and failure states, in both directions.
			for test, byCfg := range seqRep.Value {
				for cfg, want := range byCfg {
					if got := parRep.Value[test][cfg]; got != want {
						t.Errorf("%s/%s: jobs=8 value %v != jobs=1 %v", test, cfg, got, want)
					}
					if seqRep.Failed[test][cfg] != parRep.Failed[test][cfg] {
						t.Errorf("%s/%s: failure state differs between jobs=1 and jobs=8", test, cfg)
					}
				}
			}
			if len(seqRep.Value) != len(parRep.Value) {
				t.Errorf("runs measured %d vs %d tests", len(seqRep.Value), len(parRep.Value))
			}

			compareSessions(t, seqSess, parSess)
		})
	}
}
