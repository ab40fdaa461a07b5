package passmark

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dalvik"
	"repro/internal/kernel"
	"repro/internal/prog"
)

// dexRuns lists the app's DEX methods with the argument each Fig. 6 test
// passes.
var dexRuns = []struct {
	method string
	arg    uint64
}{
	{"integer", integerIters},
	{"floating", floatingIters},
	{"primes", primesN},
	{"stringsort", sortN},
	{"encrypt", encryptBytes},
	{"compress", compressBytes},
	{"memwrite", memElements},
	{"memread", memElements},
}

// onNexus7 runs body on a thread of a booted stock Android system (a
// Nexus 7) with a fresh VM and the app's dex.
func onNexus7(tb testing.TB, body func(t *kernel.Thread, vm *dalvik.VM, dex *dalvik.File)) {
	tb.Helper()
	sys, err := core.NewSystem(core.ConfigVanilla)
	if err != nil {
		tb.Fatal(err)
	}
	defer sys.Close()
	dex, err := AppDex()
	if err != nil {
		tb.Fatal(err)
	}
	ran := false
	err = sys.InstallStaticAndroidBinary("/bin/dex", "dex", func(pc *prog.Call) uint64 {
		ran = true
		th := pc.Ctx.(*kernel.Thread)
		body(th, dalvik.NewVM(sys.Kernel.Device().CPU), dex)
		return 0
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sys.Start("/bin/dex", nil); err != nil {
		tb.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		tb.Fatal(err)
	}
	if !ran {
		tb.Fatal("the dex host never ran")
	}
}

// BenchmarkDexMethods runs each of the app's DEX methods at its Fig. 6
// size on a Nexus 7 thread and reports host ns per interpreted bytecode.
func BenchmarkDexMethods(b *testing.B) {
	for _, r := range dexRuns {
		b.Run(r.method, func(b *testing.B) {
			onNexus7(b, func(t *kernel.Thread, vm *dalvik.VM, dex *dalvik.File) {
				if _, err := vm.Run(t, dex, r.method, r.arg); err != nil {
					b.Error(err)
					return
				}
				before := vm.Executed()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					vm.Run(t, dex, r.method, r.arg)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(vm.Executed()-before), "ns/bytecode")
			})
		})
	}
}
