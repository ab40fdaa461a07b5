package runner

import (
	"fmt"
	"runtime"
	"time"
)

// GoroutineLeak reports goroutines that outlived the work meant to own
// them: the count was still above its baseline when the wait ran out.
type GoroutineLeak struct {
	// Left is how many goroutines remained above the baseline.
	Left int
	// Base is the baseline goroutine count.
	Base int
}

func (e *GoroutineLeak) Error() string {
	return fmt.Sprintf("%d goroutine(s) still running after the work finished (baseline %d)", e.Left, e.Base)
}

// AwaitGoroutines polls runtime.NumGoroutine until it is at most base
// and returns a *GoroutineLeak if that has not happened within wait. A
// goroutine that has handed back its last result can take a moment to
// exit, so a single read right after the work finishes would be flaky.
func AwaitGoroutines(base int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return &GoroutineLeak{Left: n - base, Base: base}
		}
		time.Sleep(time.Millisecond)
	}
}
