package lmbench

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/figure"
)

// battery is the full Fig. 5 battery, run once per test binary.
var battery = sync.OnceValues(func() (*figure.Report, error) { return Run("", figure.Options{}) })

// holds fails the test for every miss of the named claims over the full
// battery (claims.go holds their checks and bounds).
func holds(t *testing.T, ids ...string) {
	t.Helper()
	rep, err := battery()
	if err != nil {
		t.Fatal(err)
	}
	for _, miss := range rep.Check(ids...) {
		t.Error(miss)
	}
}

// Each shape test checks the Fig. 5 claims that carry its assertions.
func TestBasicOpsShape(t *testing.T)              { holds(t, "fig5-basic-flat", "fig5-intdiv", "fig5-basic-ipad") }
func TestNullSyscallOverheads(t *testing.T)       { holds(t, "fig5-null-linux", "fig5-null-ios") }
func TestUsefulSyscallsHideOverhead(t *testing.T) { holds(t, "fig5-useful-syscalls") }
func TestSignalHandlerOverheads(t *testing.T)     { holds(t, "fig5-signal", "fig5-signal-ipad") }
func TestForkExitShape(t *testing.T) {
	holds(t, "fig5-proc-linux", "fig5-fork-exit-ios", "fig5-fork-exit-ipad")
}
func TestForkExecShape(t *testing.T) {
	holds(t, "fig5-proc-linux", "fig5-fork-exec-ios", "fig5-exec-ios", "fig5-exec-ios-ipad", "fig5-exec-impossible")
}
func TestForkShShape(t *testing.T) {
	holds(t, "fig5-proc-linux", "fig5-fork-sh-ios", "fig5-sh-below-exec")
}
func TestCommShape(t *testing.T) { holds(t, "fig5-comm-flat", "fig5-select-ipad", "fig5-select-250") }

// TestRenderedReport: the full battery holds every Fig. 5 claim, so
// its claim table has a ✅ row for each.
func TestRenderedReport(t *testing.T) {
	holds(t)
	rep, _ := battery()
	if got := strings.Count(rep.RenderClaims(), " | ✅ |\n"); got != len(claims) {
		t.Errorf("claim table has %d ✅ rows, want %d", got, len(claims))
	}
}
