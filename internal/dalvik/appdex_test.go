package dalvik_test

import (
	"testing"

	"repro/internal/dalvik"
	"repro/internal/hw"
	"repro/internal/passmark"
)

// TestDifferentialAppDex runs every method of the PassMark app's dex on
// VM and on the reference interpreter, on the Nexus 7 and the iPad mini,
// at small sizes and at its Fig. 6 size, and requires identical results,
// errors, executed counts and flushes.
func TestDifferentialAppDex(t *testing.T) {
	f, err := passmark.AppDex()
	if err != nil {
		t.Fatal(err)
	}
	// fig6 is each method's argument in the Fig. 6 battery.
	fig6 := map[string]uint64{
		"integer": 30000, "floating": 20000, "primes": 2000, "stringsort": 96,
		"encrypt": 8192, "compress": 16384, "memwrite": 32768, "memread": 32768,
	}
	for _, cpu := range []*hw.CPUModel{hw.Nexus7().CPU, hw.IPadMini().CPU} {
		for _, m := range f.Methods {
			size, ok := fig6[m.Name]
			if !ok {
				t.Fatalf("no Fig. 6 argument for method %s", m.Name)
			}
			for _, arg := range []uint64{0, 1, 2, 7, 96, size} {
				if d := dalvik.Differ(cpu, f, m.Name, nil, arg); d != "" {
					t.Errorf("%s: %s", cpu.Name, d)
				}
			}
		}
	}
}
