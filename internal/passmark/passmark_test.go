package passmark

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/figure"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
)

var cachedReport *figure.Report

func figure6(t *testing.T) *figure.Report {
	t.Helper()
	if cachedReport == nil {
		rep, err := Run("", figure.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cachedReport = rep
	}
	return cachedReport
}

func norm(t *testing.T, rep *figure.Report, test, cfg string) float64 {
	t.Helper()
	v, ok := rep.Normalized(test, cfg)
	if !ok {
		t.Fatalf("%s/%s missing", test, cfg)
	}
	return v
}

func TestCiderAddsNegligibleOverheadToAndroidApp(t *testing.T) {
	// "In all tests, Cider adds negligible overhead to the Android
	// PassMark app."
	rep := figure6(t)
	for _, test := range rep.Rows {
		v := norm(t, rep, test.Name, figure.ConfigCiderAndroid)
		if v < 0.97 || v > 1.03 {
			t.Errorf("%s cider-android = %.3f, want ≈1.0", test.Name, v)
		}
	}
}

func TestCPUGroupNativeBeatsInterpreted(t *testing.T) {
	rep := figure6(t)
	// "Cider delivers significantly faster performance when running the
	// iOS PassMark app ... because the Android version is ... interpreted
	// through the Dalvik VM while the iOS version is ... native."
	for _, test := range []string{"integer math", "floating point", "find primes",
		"random string sort", "data encryption", "data compression"} {
		ciderIOS := norm(t, rep, test, figure.ConfigCiderIOS)
		if ciderIOS < 2 {
			t.Errorf("%s cider-ios = %.2fx, want >> 1", test, ciderIOS)
		}
		// "Because the Android device contains a faster CPU than the iPad
		// mini, Cider outperforms iOS when running the CPU tests from the
		// same iOS PassMark application binary."
		ipad := norm(t, rep, test, figure.ConfigIPad)
		if ipad <= 1 {
			t.Errorf("%s ipad = %.2fx, want > 1", test, ipad)
		}
		if ciderIOS <= ipad {
			t.Errorf("%s: cider-ios (%.2f) must beat ipad (%.2f)", test, ciderIOS, ipad)
		}
	}
}

func TestStorageShape(t *testing.T) {
	rep := figure6(t)
	// "The iPad mini has much better storage write performance than either
	// the iOS or Android app running on Cider."
	ipadWrite := norm(t, rep, "storage write", figure.ConfigIPad)
	if ipadWrite < 2 {
		t.Errorf("storage write ipad = %.2fx, want >> 1", ipadWrite)
	}
	// "Cider has similar storage read performance to the iPad mini."
	ciderRead := norm(t, rep, "storage read", figure.ConfigCiderIOS)
	ipadRead := norm(t, rep, "storage read", figure.ConfigIPad)
	if ipadRead/ciderRead > 1.3 || ciderRead/ipadRead > 1.3 {
		t.Errorf("storage read cider-ios %.2f vs ipad %.2f, want similar", ciderRead, ipadRead)
	}
}

func TestMemoryShape(t *testing.T) {
	rep := figure6(t)
	for _, test := range []string{"memory write", "memory read"} {
		ciderIOS := norm(t, rep, test, figure.ConfigCiderIOS)
		ipad := norm(t, rep, test, figure.ConfigIPad)
		if ciderIOS < 2 {
			t.Errorf("%s cider-ios = %.2fx, want >> 1 (native vs Dalvik)", test, ciderIOS)
		}
		// "Cider outperforms the iPad mini running the memory tests from
		// the same iOS PassMark app binary."
		if ciderIOS <= ipad {
			t.Errorf("%s: cider-ios (%.2f) must beat ipad (%.2f)", test, ciderIOS, ipad)
		}
	}
}

func Test2DShape(t *testing.T) {
	rep := figure6(t)
	// "With the exception of complex vectors, the Android app performs
	// much better than the iOS binary on both Cider and the iPad mini."
	for _, test := range []string{"solid vectors", "transparent vectors", "image rendering", "image filters"} {
		for _, cfg := range []string{figure.ConfigCiderIOS, figure.ConfigIPad} {
			if v := norm(t, rep, test, cfg); v >= 1 {
				t.Errorf("%s on %s = %.2fx, want < 1", test, cfg, v)
			}
		}
	}
	// Complex vectors: the iOS library wins.
	if v := norm(t, rep, "complex vectors", figure.ConfigCiderIOS); v <= 1 {
		t.Errorf("complex vectors cider-ios = %.2fx, want > 1", v)
	}
	// The 2D tests are CPU bound, so Cider generally outperforms the iPad
	// on the same binary.
	for _, test := range []string{"solid vectors", "transparent vectors", "complex vectors", "image filters"} {
		ciderIOS := norm(t, rep, test, figure.ConfigCiderIOS)
		ipad := norm(t, rep, test, figure.ConfigIPad)
		if ciderIOS <= ipad {
			t.Errorf("%s: cider-ios (%.2f) should beat ipad (%.2f) (CPU bound)", test, ciderIOS, ipad)
		}
	}
	// "Bugs in the Cider OpenGL ES library related to fence
	// synchronization primitives caused under-performance in the image
	// rendering tests": Cider-iOS must trail even the iPad here.
	imgCider := norm(t, rep, "image rendering", figure.ConfigCiderIOS)
	imgIPad := norm(t, rep, "image rendering", figure.ConfigIPad)
	if imgCider >= imgIPad {
		t.Errorf("image rendering: cider-ios (%.2f) must trail ipad (%.2f) (fence bug)", imgCider, imgIPad)
	}
}

func Test3DShape(t *testing.T) {
	rep := figure6(t)
	// "Because the iPad mini has a faster GPU than the Nexus 7, it has
	// better 3D graphics performance."
	for _, test := range []string{"simple 3D", "complex 3D"} {
		if v := norm(t, rep, test, figure.ConfigIPad); v <= 1 {
			t.Errorf("%s ipad = %.2fx, want > 1", test, v)
		}
	}
	// "The iOS binary running on Cider performs 20-37% worse than the
	// Android PassMark app due to the extra cost of diplomatic function
	// calls."
	simple := norm(t, rep, "simple 3D", figure.ConfigCiderIOS)
	complex3d := norm(t, rep, "complex 3D", figure.ConfigCiderIOS)
	if simple < 0.63 || simple > 0.83 {
		t.Errorf("simple 3D cider-ios = %.2fx, want within 20-37%% below android", simple)
	}
	if complex3d < 0.60 || complex3d > 0.80 {
		t.Errorf("complex 3D cider-ios = %.2fx, want within 20-37%% below android", complex3d)
	}
	// "As the complexity of a given frame increases, the number of OpenGL
	// ES calls increases, which correspondingly increases the overhead."
	if complex3d >= simple {
		t.Errorf("complex 3D (%.2f) must lose more than simple 3D (%.2f)", complex3d, simple)
	}
}

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

func TestRenderedReport(t *testing.T) {
	rep := figure6(t)
	out := rep.Render()
	for _, want := range []string{"Figure 6", "integer math", "complex 3D", "storage write"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
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
