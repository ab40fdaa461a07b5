package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// readyLine is what a worker prints once its set-up and warm-up are done.
const readyLine = "hostbench-worker-ready"

// workerOptions are the flags of `hostbench worker`.
type workerOptions struct {
	workload   string
	seed       uint64
	iterations int
	traced     bool
	micros     bool
	quick      bool
}

// cellRuns is what one worker saw of one cell over all its iterations:
// how often each digest came out and how often the cell failed outright.
type cellRuns struct {
	Digests map[string]int `json:"digests,omitempty"`
	Errors  int            `json:"errors,omitempty"`
	Err     string         `json:"err,omitempty"` // the first error
}

// goDelta is what the Go runtime reports over a worker's timed
// iterations, the collections between iterations left out.
type goDelta struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCs        uint64 `json:"gcs"`
	PauseNS    uint64 `json:"pause_ns"`
	// RetainedBytes is live heap growth after a full collection, which
	// includes what goroutines the simulator left parked keep reachable.
	RetainedBytes  int64 `json:"retained_bytes"`
	GoroutinesLeft int   `json:"goroutines_left"`
}

// report is the last line a worker writes to its standard output.
type report struct {
	IterMS   []float64            `json:"iter_ms"`
	CellMS   []float64            `json:"cell_ms"`
	Cells    map[string]*cellRuns `json:"cells"`
	Go       goDelta              `json:"go"`
	MaxRSSMB float64              `json:"max_rss_mb"`
	Counts   *counts              `json:"counts,omitempty"`
	Micros   *micros              `json:"micros,omitempty"`
	Spans    []span               `json:"spans,omitempty"`
}

// record notes one run of a cell.
func (r *report) record(key string, d uint64, err error) {
	c := r.Cells[key]
	if c == nil {
		c = &cellRuns{}
		r.Cells[key] = c
	}
	if err != nil {
		if c.Errors == 0 {
			c.Err = err.Error()
		}
		c.Errors++
		return
	}
	if c.Digests == nil {
		c.Digests = map[string]int{}
	}
	c.Digests[fmt.Sprintf("%016x", d)]++
}

// workerMain runs `hostbench worker`: one fresh process that sets up a
// workload, runs the warm-up iteration, prints readyLine, runs its timed
// iterations and prints its report as one JSON line.
func workerMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var o workerOptions
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of this worker's cell orders")
	fs.IntVar(&o.iterations, "iterations", 1, "timed iterations after the warm-up")
	fs.BoolVar(&o.traced, "trace", false, "count every layer's work and record spans")
	fs.BoolVar(&o.micros, "micros", false, "run the public-API microbenchmarks instead of a workload")
	fs.BoolVar(&o.quick, "quick", false, "run the quick battery, and each microbenchmark for "+quickMicroTime)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	benchtime := microTime
	if o.quick {
		benchtime = quickMicroTime
	}
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench worker: %v\n", err)
		return 2
	}
	rep, err := work(o, stdout)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench worker: %v\n", err)
		return 1
	}
	return 0
}

// work does what one worker process does; ready receives readyLine.
func work(o workerOptions, ready io.Writer) (*report, error) {
	rep := &report{Cells: map[string]*cellRuns{}}
	if o.micros {
		fmt.Fprintln(ready, readyLine)
		sp := newSpans()
		m, err := runMicros(sp)
		rep.Micros, rep.Spans = m, sp.list
		return rep, err
	}
	w, err := newWorkload(o.workload, o.seed, o.quick)
	if err != nil {
		return nil, err
	}
	iterate(w, rep, nil, &sample{})
	fmt.Fprintln(ready, readyLine)

	var p *probe
	if o.traced {
		p = &probe{spans: newSpans()}
	}
	var s sample
	var first counts
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	heap0, goroutines0 := before.HeapAlloc, runtime.NumGoroutine()
	for i := 0; i < o.iterations; i++ {
		// Every timed iteration starts from a collected heap, so the
		// collections inside it depend on its own allocation, not on
		// where the previous iteration left the collector's cycle.
		if i > 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		if p != nil {
			p.c = counts{}
		}
		iterate(w, rep, p, &s)
		runtime.ReadMemStats(&after)
		rep.Go.AllocBytes += after.TotalAlloc - before.TotalAlloc
		rep.Go.Mallocs += after.Mallocs - before.Mallocs
		rep.Go.GCs += uint64(after.NumGC - before.NumGC)
		rep.Go.PauseNS += after.PauseTotalNs - before.PauseTotalNs
		if p == nil {
			continue
		}
		if i == 0 {
			first = p.c
		} else if p.c != first {
			return nil, fmt.Errorf("traced iteration %d counted different work than the first", i)
		}
	}
	rep.MaxRSSMB = maxRSSMB()
	runtime.GC()
	runtime.ReadMemStats(&after)
	rep.Go.RetainedBytes = int64(after.HeapAlloc) - int64(heap0)
	rep.Go.GoroutinesLeft = runtime.NumGoroutine() - goroutines0
	rep.IterMS, rep.CellMS = s.iterMS, s.cellMS
	if p != nil {
		if w.counters != nil {
			if err := w.counters(&first); err != nil {
				return nil, fmt.Errorf("%s counters: %w", w.name, err)
			}
		}
		rep.Counts, rep.Spans = &first, p.spans.list
	}
	return rep, nil
}

// sample holds the wall times of the iterations and cells of a loop.
type sample struct {
	iterMS, cellMS []float64
}

func (s *sample) add(o sample) {
	s.iterMS = append(s.iterMS, o.iterMS...)
	s.cellMS = append(s.cellMS, o.cellMS...)
}

// iterate runs every cell once, timing each cell and the iteration.
func iterate(w *workload, rep *report, p *probe, s *sample) {
	start := time.Now()
	var iter int
	if p != nil {
		iter = p.spans.begin("iter", 0)
	}
	for _, c := range w.next() {
		if p != nil {
			p.cell = p.spans.begin("cell", iter)
		}
		t := time.Now()
		d, err := c.run(p)
		s.cellMS = append(s.cellMS, msSince(t))
		if p != nil {
			p.spans.end(p.cell)
		}
		rep.record(c.key, d, err)
	}
	if p != nil {
		p.spans.end(iter)
	}
	s.iterMS = append(s.iterMS, msSince(start))
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// maxRSSMB is the process's peak resident set size in MB (1e6 bytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
