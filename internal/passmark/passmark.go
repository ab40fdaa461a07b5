// Package passmark reimplements the PassMark PerformanceTest workloads the
// paper uses for Figure 6: CPU (integer, floating point, primes, string
// sort, encryption, compression), storage (write/read), memory
// (write/read), 2D graphics (vectors, image rendering, image filters), and
// 3D graphics (simple/complex scenes).
//
// Two genuinely different builds exist, as on the real stores:
//
//   - The Android app is DEX bytecode executed by the Dalvik interpreter
//     (internal/dalvik), reaching the OS and GPU through JNI intrinsics.
//   - The iOS app is native code (compiled Objective-C in the paper),
//     charging only the hardware costs of its operations, and reaching the
//     GPU through the (diplomatic, on Cider) GL bindings.
//
// Scores are operations per virtual second, normalized to vanilla Android
// — higher is better, matching the Fig. 6 axes.
package passmark

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/persona"
)

// Config names (Fig. 6 columns).
const (
	ConfigAndroid      = "android"
	ConfigCiderAndroid = "cider-android"
	ConfigCiderIOS     = "cider-ios"
	ConfigIPad         = "ipad"
)

// Configuration is one Fig. 6 column.
type Configuration struct {
	Name   string
	System core.Config
	// Persona selects the app build: the Google Play app (Dalvik
	// bytecode) for Android, the App Store app (native binary) for iOS.
	Persona persona.Kind
}

// Configurations returns the four Fig. 6 configurations in paper order.
func Configurations() []Configuration {
	return []Configuration{
		{ConfigAndroid, core.ConfigVanilla, persona.Android},
		{ConfigCiderAndroid, core.ConfigCider, persona.Android},
		{ConfigCiderIOS, core.ConfigCider, persona.IOS},
		{ConfigIPad, core.ConfigIPad, persona.IOS},
	}
}

// Test is one PassMark measurement.
type Test struct {
	// Name matches the Fig. 6 x-axis label.
	Name string
	// Group is the Fig. 6 cluster ("cpu", "storage", "memory", "2d", "3d").
	Group string
	// runAndroid and runIOS produce (work units done, elapsed virtual
	// time) for the respective builds.
	runAndroid func(c *ctx) (float64, time.Duration, error)
	runIOS     func(c *ctx) (float64, time.Duration, error)
}

// Result is one (test, configuration) score.
type Result struct {
	Test   string
	Group  string
	Config string
	// Score is work units per second (higher is better).
	Score float64
	// Err records a failed run.
	Err error
}

// RunWith executes the battery in one configuration. onSystem, when
// non-nil, is invoked with the freshly booted System before the app
// starts — the place to attach a trace session. It must not advance
// virtual time.
//
// RunWith does not close the System: a hook that keeps it owns it and
// calls System.Close once it has audited the post-run state, as the soak
// cells do after reading trace digests and LeakCheck.
func RunWith(conf Configuration, tests []Test, onSystem func(*core.System)) ([]Result, error) {
	sys, err := core.NewSystem(conf.System)
	if err != nil {
		return nil, err
	}
	if onSystem != nil {
		onSystem(sys)
	}
	var results []Result
	driver := func(t *kernel.Thread) {
		c, cerr := newCtx(t, sys, conf.Persona)
		if cerr != nil {
			for _, test := range tests {
				results = append(results, Result{Test: test.Name, Group: test.Group, Config: conf.Name, Err: cerr})
			}
			return
		}
		for _, test := range tests {
			run := test.runAndroid
			if conf.Persona == persona.IOS {
				run = test.runIOS
			}
			work, elapsed, rerr := run(c)
			r := Result{Test: test.Name, Group: test.Group, Config: conf.Name, Err: rerr}
			if rerr == nil && elapsed > 0 {
				r.Score = work / elapsed.Seconds()
			}
			results = append(results, r)
		}
	}
	key := "passmark-" + conf.Name
	var path string
	if conf.Persona == persona.IOS {
		path = "/Applications/PassMark.app/PassMark"
		err = sys.InstallIOSBinary(path, key, nil, kernel.Entry(driver))
	} else {
		path = "/data/app/passmark"
		err = sys.InstallAndroidBinary(path, key, []string{"libc.so", "libGLESv2.so", "libandroid_runtime.so"}, kernel.Entry(driver))
	}
	if err != nil {
		return nil, err
	}
	if _, err := sys.Start(path, nil); err != nil {
		return nil, err
	}
	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("passmark: %s: %w", conf.Name, err)
	}
	return results, nil
}
