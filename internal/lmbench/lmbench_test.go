package lmbench

import (
	"strings"
	"testing"

	"repro/internal/figure"
)

// report is shared across tests: running all four configurations once
// takes a few real seconds.
var cachedReport *figure.Report

func figure5(t *testing.T) *figure.Report {
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
		t.Fatalf("%s/%s did not produce a normalized value", test, cfg)
	}
	return v
}

func TestBasicOpsShape(t *testing.T) {
	rep := figure5(t)
	// "The basic CPU operation measurements were essentially the same for
	// all three system configurations using the Android device, except for
	// the integer divide test."
	for _, test := range []string{"int mul", "double add", "double mul", "double bogomflops"} {
		for _, cfg := range []string{figure.ConfigCiderAndroid, figure.ConfigCiderIOS} {
			v := norm(t, rep, test, cfg)
			if v < 0.98 || v > 1.02 {
				t.Errorf("%s on %s = %.3f, want ≈1.0", test, cfg, v)
			}
		}
		// "In all cases, the measurements for the iOS device were worse."
		if v := norm(t, rep, test, figure.ConfigIPad); v <= 1.05 {
			t.Errorf("%s on ipad = %.3f, want > 1.05", test, v)
		}
	}
	// intdiv: "the Linux compiler generated more optimized code than the
	// iOS compiler" — the iOS binary is slower even on the same device.
	if v := norm(t, rep, "int div", figure.ConfigCiderIOS); v < 1.3 {
		t.Errorf("int div on cider-ios = %.3f, want > 1.3 (Xcode codegen)", v)
	}
	if v := norm(t, rep, "int div", figure.ConfigCiderAndroid); v < 0.98 || v > 1.02 {
		t.Errorf("int div on cider-android = %.3f, want ≈1.0", v)
	}
}

func TestNullSyscallOverheads(t *testing.T) {
	rep := figure5(t)
	// "The overhead is 8.5% over vanilla Android running the same Linux
	// binary" and "40% when running the iOS binary".
	if v := norm(t, rep, "null syscall", figure.ConfigCiderAndroid); v < 1.06 || v > 1.12 {
		t.Errorf("null syscall cider-android = %.3f, want ≈1.085", v)
	}
	if v := norm(t, rep, "null syscall", figure.ConfigCiderIOS); v < 1.30 || v > 1.52 {
		t.Errorf("null syscall cider-ios = %.3f, want ≈1.40", v)
	}
}

func TestUsefulSyscallsHideOverhead(t *testing.T) {
	rep := figure5(t)
	// "These overheads fall into the noise for syscalls that perform some
	// useful function."
	for _, test := range []string{"read", "write", "open/close"} {
		if v := norm(t, rep, test, figure.ConfigCiderIOS); v > 1.25 {
			t.Errorf("%s cider-ios = %.3f, want < 1.25", test, v)
		}
	}
}

func TestSignalHandlerOverheads(t *testing.T) {
	rep := figure5(t)
	// 3% for the Linux binary, 25% for the iOS binary.
	if v := norm(t, rep, "signal handler", figure.ConfigCiderAndroid); v < 1.01 || v > 1.08 {
		t.Errorf("signal cider-android = %.3f, want ≈1.03", v)
	}
	ciderIOS := norm(t, rep, "signal handler", figure.ConfigCiderIOS)
	if ciderIOS < 1.15 || ciderIOS > 1.38 {
		t.Errorf("signal cider-ios = %.3f, want ≈1.25", ciderIOS)
	}
	// "Running the iOS binary on the iPad mini takes 175% longer than
	// running the same binary on the Nexus 7 using Cider."
	ipad := norm(t, rep, "signal handler", figure.ConfigIPad)
	ratio := ipad / ciderIOS
	if ratio < 2.2 || ratio > 3.3 {
		t.Errorf("ipad/cider-ios signal = %.2f, want ≈2.75", ratio)
	}
}

func TestForkExitShape(t *testing.T) {
	rep := figure5(t)
	// Negligible overhead for the Linux binary; ~14x for the iOS binary.
	if v := norm(t, rep, "fork+exit", figure.ConfigCiderAndroid); v > 1.08 {
		t.Errorf("fork+exit cider-android = %.3f, want ≈1.0", v)
	}
	v := norm(t, rep, "fork+exit", figure.ConfigCiderIOS)
	if v < 11 || v > 17 {
		t.Errorf("fork+exit cider-ios = %.1fx, want ≈14x", v)
	}
	// iPad significantly faster than Cider-iOS thanks to the shared cache.
	ipad := norm(t, rep, "fork+exit", figure.ConfigIPad)
	if ipad >= v {
		t.Errorf("fork+exit ipad (%.1fx) should beat cider-ios (%.1fx)", ipad, v)
	}
}

func TestForkExecShape(t *testing.T) {
	rep := figure5(t)
	// fork+exec(android): negligible for Linux binary; ~4.8x for iOS.
	if v := norm(t, rep, "fork+exec(android)", figure.ConfigCiderAndroid); v > 1.08 {
		t.Errorf("fork+exec(android) cider-android = %.3f", v)
	}
	v := norm(t, rep, "fork+exec(android)", figure.ConfigCiderIOS)
	if v < 3.5 || v > 6.5 {
		t.Errorf("fork+exec(android) cider-ios = %.1fx, want ≈4.8x", v)
	}
	// fork+exec(ios) is "much more expensive" (non-prelinked dyld walk).
	vi := norm(t, rep, "fork+exec(ios)", figure.ConfigCiderIOS)
	if vi < 15 {
		t.Errorf("fork+exec(ios) cider-ios = %.1fx, want >> fork+exec(android)", vi)
	}
	// The iPad's shared cache avoids the walk.
	ipad := norm(t, rep, "fork+exec(ios)", figure.ConfigIPad)
	if ipad >= vi {
		t.Errorf("fork+exec(ios) ipad (%.1fx) should beat cider-ios (%.1fx)", ipad, vi)
	}
	// Impossible combinations are reported as failures, not numbers.
	if _, ok := rep.Normalized("fork+exec(ios)", figure.ConfigAndroid); ok {
		t.Error("fork+exec(ios) must fail on vanilla Android")
	}
	if _, ok := rep.Normalized("fork+exec(android)", figure.ConfigIPad); ok {
		t.Error("fork+exec(android) must fail on the iPad")
	}
}

func TestForkShShape(t *testing.T) {
	rep := figure5(t)
	// "Cider incurs negligible overhead versus vanilla Android when the
	// test program is a Linux binary, but takes 110% longer when the test
	// program is an iOS binary" (relative overhead smaller than
	// fork+exec because the shell is expensive).
	if v := norm(t, rep, "fork+sh(android)", figure.ConfigCiderAndroid); v > 1.08 {
		t.Errorf("fork+sh(android) cider-android = %.3f", v)
	}
	v := norm(t, rep, "fork+sh(android)", figure.ConfigCiderIOS)
	if v < 1.7 || v > 2.6 {
		t.Errorf("fork+sh(android) cider-ios = %.2fx, want ≈2.1x", v)
	}
	feIOS := norm(t, rep, "fork+exec(ios)", figure.ConfigCiderIOS)
	fsIOS := norm(t, rep, "fork+sh(ios)", figure.ConfigCiderIOS)
	// "Because the fork+sh(ios) test takes longer, the relative overhead
	// is less than the fork+exec(ios) measurement" — each is normalized
	// against its android-variant baseline.
	if fsIOS >= feIOS {
		t.Errorf("fork+sh(ios) normalized (%.1fx) should be below fork+exec(ios)'s (%.1fx)",
			fsIOS, feIOS)
	}
}

func TestCommShape(t *testing.T) {
	rep := figure5(t)
	// "Measurements were quite similar for all three system configurations
	// using the Android device."
	for _, test := range []string{"pipe", "AF_UNIX", "select 10", "select 100", "0KB create", "10KB delete"} {
		for _, cfg := range []string{figure.ConfigCiderAndroid, figure.ConfigCiderIOS} {
			if v := norm(t, rep, test, cfg); v < 0.9 || v > 1.3 {
				t.Errorf("%s on %s = %.3f, want ≈1.0", test, cfg, v)
			}
		}
	}
	// "Measurements on the iPad mini were significantly worse in a number
	// of cases. Perhaps the worst offender was the select test whose
	// overhead increased linearly ... to more than 10 times."
	if v := norm(t, rep, "select 100", figure.ConfigIPad); v < 5 {
		t.Errorf("select 100 ipad = %.1fx, want large", v)
	}
	if _, ok := rep.Normalized("select 250", figure.ConfigIPad); ok {
		t.Error("select 250 must fail on the iPad")
	}
	if _, ok := rep.Normalized("select 250", figure.ConfigCiderIOS); !ok {
		t.Error("select 250 must succeed on Cider")
	}
}

func TestRenderedReport(t *testing.T) {
	rep := figure5(t)
	out := rep.Render()
	for _, want := range []string{"Figure 5", "null syscall", "fork+exit", "select 250", "n/a"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
