package core

import (
	"testing"

	"repro/internal/prog"
)

// execSystem boots one Cider system with a trivial iOS binary installed at
// /bin/exec-bench and execs it once, so the caller's execs replay the
// recorded link plan.
func execSystem(tb testing.TB) (sys *System, exec func()) {
	tb.Helper()
	sys, err := NewSystem(ConfigCider)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.InstallIOSBinary("/bin/exec-bench", "exec-bench", nil, func(*prog.Call) uint64 { return 0 }); err != nil {
		tb.Fatal(err)
	}
	exec = func() {
		if _, err := sys.Start("/bin/exec-bench", nil); err != nil {
			tb.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			tb.Fatal(err)
		}
	}
	exec()
	return sys, exec
}

// BenchmarkExecIOS measures one iOS exec on a booted Cider system: the
// kernel's Mach-O load, dyld loading and binding the 115 libraries
// libSystem pulls in, the trivial main, and exit.
func BenchmarkExecIOS(b *testing.B) {
	sys, exec := execSystem(b)
	defer sys.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec()
	}
}
