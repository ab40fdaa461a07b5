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
	"repro/internal/figure"
	"repro/internal/kernel"
	"repro/internal/persona"
)

// fig6 is Figure 6 as data for the shared frame. PassMark cells cannot
// shard per test the way lmbench's do: the 3D scenes measure warm
// GPU/diplomat state built up by the tests that ran before them in the
// same app process (a cold-start "simple 3D" run scores measurably
// differently), so a cell is a whole configuration's battery.
var fig6 = &figure.Figure{
	Name:       "passmark",
	Title:      "Figure 6: PassMark throughput normalized to vanilla Android (higher is better)",
	GroupWidth: 8,
	Rule:       100,
	Groups: map[string]string{
		"cpu":     "CPU operations",
		"storage": "storage operations",
		"memory":  "memory operations",
		"2d":      "2D graphics",
		"3d":      "3D graphics",
	},
	Format:      fmtScore,
	RunWrapped:  true,
	AndroidPath: "/data/app/passmark",
	IOSPath:     "/Applications/PassMark.app/PassMark",
	AndroidLibs: []string{"libc.so", "libGLESv2.so", "libandroid_runtime.so"},
	Claims:      claims,
}

func fmtScore(s float64) string {
	switch {
	case s >= 1e9:
		return fmt.Sprintf("%.1fG/s", s/1e9)
	case s >= 1e6:
		return fmt.Sprintf("%.1fM/s", s/1e6)
	case s >= 1e3:
		return fmt.Sprintf("%.1fk/s", s/1e3)
	default:
		return fmt.Sprintf("%.1f/s", s)
	}
}

// Run runs one group of the battery ("" for all of it) on the four
// configurations: Figure 6, throughput normalized to vanilla Android.
func Run(group string, opts figure.Options) (*figure.Report, error) {
	return figure.Run(fig6, AllTests(), group, opts, RunWith)
}

// Configurations returns the four configurations in paper order (kept
// for hostbench).
func Configurations() []figure.Configuration { return figure.Configurations() }

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

// Row is the test's row of the Fig. 6 table.
func (t Test) Row() figure.Row { return figure.Row{Name: t.Name, Group: t.Group} }

// Result is one (test, configuration) score.
type Result struct {
	Test, Config string
	// Score is work units per second (higher is better).
	Score float64
	// Err records a failed run.
	Err error
}

// Measured is the score and whether the run failed.
func (r Result) Measured() (float64, bool) { return r.Score, r.Err != nil }

// RunWith executes the battery in one configuration; see
// figure.Figure.RunWith for onSystem.
func RunWith(conf figure.Configuration, tests []Test, onSystem func(*core.System)) ([]Result, error) {
	var results []Result
	err := fig6.RunWith(conf, onSystem, func(sys *core.System) (func(*kernel.Thread), error) {
		return func(t *kernel.Thread) {
			c, cerr := newCtx(t, sys, conf.Persona)
			if cerr != nil {
				for _, test := range tests {
					results = append(results, Result{Test: test.Name, Config: conf.Name, Err: cerr})
				}
				return
			}
			for _, test := range tests {
				run := test.runAndroid
				if conf.Persona == persona.IOS {
					run = test.runIOS
				}
				work, elapsed, rerr := run(c)
				r := Result{Test: test.Name, Config: conf.Name, Err: rerr}
				if rerr == nil && elapsed > 0 {
					r.Score = work / elapsed.Seconds()
				}
				results = append(results, r)
			}
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
