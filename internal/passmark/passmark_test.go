package passmark

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/figure"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
)

// battery is the full Fig. 6 battery, run once per test binary.
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

// Each shape test checks the Fig. 6 claims that carry its assertions.
func TestCiderAddsNegligibleOverheadToAndroidApp(t *testing.T) { holds(t, "fig6-android-app") }
func TestCPUGroupNativeBeatsInterpreted(t *testing.T) {
	holds(t, "fig6-cpu-native", "fig6-cpu-ipad", "fig6-cpu-cider-beats-ipad")
}
func TestStorageShape(t *testing.T) { holds(t, "fig6-storage-write", "fig6-storage-read") }
func TestMemoryShape(t *testing.T)  { holds(t, "fig6-memory-native", "fig6-memory-cider-beats-ipad") }
func Test2DShape(t *testing.T) {
	holds(t, "fig6-2d-android-wins", "fig6-2d-complex-vectors", "fig6-2d-cpu-bound", "fig6-fence-bug")
}
func Test3DShape(t *testing.T) { holds(t, "fig6-3d-ipad", "fig6-3d-diplomat", "fig6-3d-complexity") }

// TestChecksumEquivalence asserts that the DEX and native builds compute
// identical results — the Fig. 6 CPU comparison measures interpretation,
// not different algorithms.
func TestChecksumEquivalence(t *testing.T) {
	sys, err := core.NewSystem(core.ConfigVanilla)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		method string
		arg    int64
		native func(*ctx, int64) uint64
	}{
		{"integer", 500, nativeInteger},
		{"floating", 300, nativeFloating},
		{"primes", 200, nativePrimes},
		{"stringsort", 48, nativeStringSort},
		{"encrypt", 512, nativeEncrypt},
		{"compress", 1024, nativeCompress},
	}
	sys.InstallStaticAndroidBinary("/bin/eq", "eq", func(pc *prog.Call) uint64 {
		th := pc.Ctx.(*kernel.Thread)
		c, cerr := newCtx(th, sys, persona.Android)
		if cerr != nil {
			t.Error(cerr)
			return 1
		}
		for _, cs := range cases {
			dexRet, natRet, err := checksumPair(c, cs.method, cs.arg, cs.native)
			if err != nil {
				t.Errorf("%s: %v", cs.method, err)
				continue
			}
			if dexRet != natRet {
				t.Errorf("%s: dex=%#x native=%#x — builds diverge", cs.method, dexRet, natRet)
			}
		}
		c.flush()
		return 0
	})
	sys.Start("/bin/eq", nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPrimesCountIsCorrect(t *testing.T) {
	sys, err := core.NewSystem(core.ConfigVanilla)
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallStaticAndroidBinary("/bin/pc", "pc", func(pc *prog.Call) uint64 {
		th := pc.Ctx.(*kernel.Thread)
		c, _ := newCtx(th, sys, persona.Android)
		// 25 primes below 100.
		if got := nativePrimes(c, 100); got != 25 {
			t.Errorf("primes(100) = %d, want 25", got)
		}
		c.flush()
		return 0
	})
	sys.Start("/bin/pc", nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRenderedReport: the full battery holds every Fig. 6 claim, so
// its claim table has a ✅ row for each.
func TestRenderedReport(t *testing.T) {
	holds(t)
	rep, _ := battery()
	if got := strings.Count(rep.RenderClaims(), " | ✅ |\n"); got != len(claims) {
		t.Errorf("claim table has %d ✅ rows, want %d", got, len(claims))
	}
}

func TestAblationFenceFix(t *testing.T) {
	// Repairing the GLES fence bug (paper future work) must lift the
	// image-rendering score on Cider-iOS.
	imageScore := func(fixed bool) float64 {
		sys, err := core.NewSystem(core.ConfigCider, core.Options{FixFences: &fixed})
		if err != nil {
			t.Fatal(err)
		}
		var score float64
		sys.InstallIOSBinary("/Applications/f.app/f", "fence-app", nil, func(pc *prog.Call) uint64 {
			th := pc.Ctx.(*kernel.Thread)
			c, cerr := newCtx(th, sys, persona.IOS)
			if cerr != nil {
				t.Error(cerr)
				return 1
			}
			work, elapsed, rerr := imageRenderTest().runIOS(c)
			if rerr != nil {
				t.Error(rerr)
				return 1
			}
			score = work / elapsed.Seconds()
			return 0
		})
		sys.Start("/Applications/f.app/f", nil)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return score
	}
	buggy := imageScore(false)
	fixedScore := imageScore(true)
	if fixedScore <= buggy*1.2 {
		t.Fatalf("fence fix: %.0f -> %.0f, want a clear improvement", buggy, fixedScore)
	}
}
