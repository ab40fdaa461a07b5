// Package runner is the host-parallel experiment engine: it shards
// independent experiment cells across host workers and merges their
// results in canonical order, bit-identical to a sequential run.
//
// The determinism contract the simulator pins (runs are pure functions of
// configuration — see DESIGN.md) is what makes this safe: each cell boots
// its own core.System with its own virtual clock and shares nothing
// mutable with other cells, so host scheduling cannot influence any
// simulated result, only wall-clock time. The merge step reassembles
// results by cell index, so output order is independent of completion
// order, and errors are reported deterministically (lowest cell index
// wins). This package runs on the HOST side of the host/sim boundary: it
// may use sync, goroutines, and the host clock freely — ciderlint's
// wallclock analyzer scopes sim packages only.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs normalizes a --jobs flag value: n<=0 selects GOMAXPROCS (the
// host's available parallelism), anything else passes through.
func Jobs(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) across up to jobs host workers and
// returns the n results in index order. jobs <= 0 means GOMAXPROCS. The
// i-th result slot is written only by the worker that ran cell i, so the
// output is bit-identical to the sequential loop regardless of how cells
// land on workers.
//
// If any cells fail, Map still runs every cell, then returns the error
// from the lowest-index failed cell — the same error a sequential loop
// that collected-and-continued would report first. If a cell panics, Map
// re-panics in the caller's goroutine with the lowest-index panic value.
func Map[T any](n, jobs int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs == 1 {
		// Plain sequential loop: no goroutines, no locks — this is the
		// reference execution the parallel path must match bit-for-bit.
		var firstErr error
		firstErrIdx := n
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil && i < firstErrIdx {
				firstErr, firstErrIdx = err, i
			}
			results[i] = r
		}
		return results, firstErr
	}

	var (
		// next is the one shared cursor: an idle worker takes the next
		// unstarted cell, so a slow cell holds up only its own worker.
		// Cells are whole simulated runs, so it is nowhere near
		// contended.
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		panicVal any
		panicIdx = n
		panicked bool
		wg       sync.WaitGroup
	)
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if i < panicIdx {
					panicVal, panicIdx, panicked = r, i, true
				}
				mu.Unlock()
			}
		}()
		r, err := fn(i)
		results[i] = r
		if err != nil {
			mu.Lock()
			if i < firstIdx {
				firstErr, firstIdx = err, i
			}
			mu.Unlock()
		}
	}
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runCell(i)
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	return results, firstErr
}
