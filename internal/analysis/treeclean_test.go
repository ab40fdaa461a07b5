//go:build !race

package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

// TestTreeIsClean runs the full suite over the real module, pinning the
// repository to zero findings: a regression that reintroduces a wall-clock
// read, an uncharged handler path, a discarded wake tag, an untranslated
// persona payload, an incomplete ABI table, a lock-order violation, or an
// allocation on a //hot:noalloc path fails this test (and `make lint`).
//
// The file is left out of -race builds: the race detector adds nothing to
// a static pass over the source, and `make verify` already runs the same
// suite once, in its lint step.
func TestTreeIsClean(t *testing.T) {
	prog, err := analysis.Load(analysis.LoadConfig{Dir: "../.."}, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}
