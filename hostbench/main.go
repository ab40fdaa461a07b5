// Command hostbench is the repository's host-time benchmark: it measures
// how much host time, memory and set-up the simulator spends to produce
// the paper's results, checks that every simulated result is still
// correct, and breaks the host time down by simulator layer.
//
// Usage:
//
//	hostbench -workload W [-seed S] [-seconds N] [-trace 0|1] [-out FILE] [-spans FILE]
//	hostbench diff -old 'GLOB' -new 'GLOB'
//
// run.sh builds the command from the checkout and runs it; BENCHMARK.json
// at the repository root names the workloads, metrics, units and bounds,
// and diff reads the bounds from there.
// Every time here is host time. Virtual time appears only inside the
// per-cell digests the correctness check compares with golden.json.
//
// # Loop
//
// The loop is closed, with one client. A cell is one freshly booted
// simulated system, boot to return; an iteration runs every cell of the
// workload once, one cell at a time (jobs=1), each starting when the
// previous one returned. The iterations run in worker processes, started
// one after another by the driver process until -seconds have passed, at
// least 5 per pass. A worker builds the workload's cells, runs one
// untimed warm-up iteration (which fills the package-level FS templates
// and Mach-O/dyld caches and boots each configuration once), then runs a
// fixed number of timed iterations, each after a full garbage collection
// that is not timed. Fresh processes keep
// what the simulator leaks from one iteration to the next (soak-crash
// leaves about 340 parked daemon goroutines and 58 MB of heap per
// iteration) from growing over the run and shifting the collector's
// rhythm, so every worker measures the same work under the same heap.
//
// # Workloads
//
// The seed starts a splitmix64 stream that gives every worker its own
// seed; a worker's seed starts the stream that draws a fresh Fisher–Yates
// permutation of the cells for every iteration. The simulator sees only
// the cells; every seed runs the same cells.
//
//	workload    iterations/worker  cells/iteration
//	fig5        16                 96: the Fig. 5 lmbench battery, one
//	                               (configuration, test) cell each, through
//	                               lmbench.RunWith. Boot, syscall dispatch
//	                               and the sim run-token handoff dominate.
//	fig6        12                 4: the Fig. 6 PassMark battery, one cell
//	                               per configuration, through
//	                               passmark.RunWith. Dalvik, diplomats and
//	                               memory loops dominate; boot is small.
//	soak-crash  2                  77: the daemon-crash fault schedule over
//	                               soak.QuickTests() through soak.RecordCell,
//	                               services booted, decision recording on:
//	                               launchd respawns, Mach IPC, exception
//	                               delivery, the fault injector and replay.
//	diffcheck   5                  120: diffcheck programs 1..60, each under
//	                               both personas through
//	                               diffcheck.RunCellDecided on a bare kernel
//	                               (no FS template, no dyld).
//
// # Correctness
//
// Each cell's digest folds its virtual-time outputs: lmbench latencies and
// failure marks, PassMark scores, the soak cell digest with its failure
// and injection counts, or a diffcheck cell's result log, normalized
// events and counters. A cell fails when it returns an error, when its
// digest differs from golden.json (expected n/a cells are part of the
// golden values), when a soak cell has findings, or when a diffcheck pair
// has an unallowlisted divergence under diffcheck.DefaultAllowlist().
// Workers report every digest they saw and the driver checks them, the
// warm-up iterations and the traced ones included, so attaching a trace
// session must not move any digest either. The result's "attempted" and
// "failed" count cell runs. Regenerate golden.json with
// `go test -run TestGolden -update` in this directory.
//
// # End-to-end metrics (-trace 0)
//
//	setup_s            s      worker start to the end of its warm-up
//	                          iteration: exec, runtime init, package
//	                          caches, first boots; median over workers
//	iter_ms_p50        ms     median wall time of one timed iteration
//	cell_ms_p95        ms     95th percentile of all cell times; every
//	                          workload has at least 50 cells beyond it in
//	                          a 30 s run
//	alloc_mb_per_iter  MB     Go heap bytes allocated per timed iteration
//	                          (1e6 B)
//	max_rss_mb         MB     a worker's peak resident set size after its
//	                          timed iterations; median over workers
//
// There is no cell median: the short, boot-heavy cells in the middle of
// the distribution swing the most with the host's memory contention, and
// iter_ms_p50 already gives the median.
//
// # Bounds
//
// BENCHMARK.json gives each end-to-end metric the share of the parent's
// median by which it may worsen. The spreads behind them, as the
// interquartile range over the median of ten 30 s runs (seeds 1..10),
// measured twice on a 2-vCPU 2.1 GHz VM shared with other tenants (first
// set, second set):
//
//	metric             bound  fig5        fig6        soak-crash  diffcheck
//	setup_s            0.25   0.15 0.13   0.08 0.13   0.17 0.09   0.10 0.47
//	iter_ms_p50        0.25   0.17 0.09   0.11 0.13   0.11 0.10   0.17 0.28
//	cell_ms_p95        0.25   0.10 0.08   0.03 0.08   0.07 0.08   0.11 0.28
//	alloc_mb_per_iter  0.05   0.0002 or less in every set
//	max_rss_mb         0.15   0.003 0.007 0.008 0.007 0.009 0.008 0.04 0.009
//
// The time bounds are the largest BENCHMARK.json allows, yet the time
// spreads are not below a third of them, and one exceeded them: the host
// slows memory-bound work by 30-45% for minutes at a time (the second
// set's diffcheck runs 5 to 8 fell in such a stretch), and no run length
// that fits the benchmark's time budget averages that out. Between the
// two sets the medians moved by at most +17% (soak-crash iter_ms_p50).
// Re-measure and update this table when a bound changes.
//
// # Per-layer metrics (-trace 1)
//
// A first worker runs the public-API microbenchmarks through
// testing.Benchmark (-test.benchtime 100ms each). Untraced workers then
// run for half of -seconds and traced workers for the other half: fig5
// and fig6 cells get a stats-only
// trace.Session and a replay.Recorder through the OnSystem hook; soak and
// diffcheck cells are traced and recorded by their own packages. Counts
// are per iteration and must repeat exactly on every traced iteration of
// every worker. A count the harness cannot observe through a workload's
// public entry points reads 0: soak-crash exposes no syscall or
// scheduler counts, and the diffcheck event streams carry no scheduler
// events.
//
//	core       core.boots_per_iter (count), core.boot_us.{android-vanilla,
//	           cider,ipad} (us, core.NewSystem), core.boot_share (ratio)
//	kernel     kernel.boots_per_iter (count, bare kernels),
//	           kernel.boot_us (us), kernel.syscalls_per_iter,
//	           kernel.syscall_errors_per_iter, kernel.forks_per_iter,
//	           kernel.execs_per_iter (count),
//	           kernel.null_syscall_ns.{android,ios} (ns, a getppid loop in
//	           a process on a booted Cider system),
//	           kernel.ns_per_sim_syscall (ns, untraced iter_ms_p50 over
//	           the syscalls of an iteration; cmd/simbench's
//	           ns_per_sim_syscall divides a best-of-3 battery wall time
//	           instead, so the two do not compare)
//	sim        sim.blocks_per_iter, sim.wakes_per_iter,
//	           sim.spawns_per_iter (count), sim.blocks_per_syscall (ratio),
//	           sim.switch_ns (ns per handoff), sim.switch_allocs (count per
//	           park/wake round trip, amortized over 1000 rounds of a sim)
//	dyld       dyld.images_per_iter, dyld.binds_per_iter (count),
//	           dyld.exec_ios_us (us, Start+Run of a hello iOS binary that
//	           links 115 dylibs)
//	libsystem  libsystem.fork_exit_ios_us (us, Fork+Wait of that task)
//	bionic     bionic.fork_exit_android_us (us, Fork+Wait of a static ELF)
//	xnu        xnu.mach_msgs_per_iter (count), xnu.mach_send_recv_ns (ns,
//	           MachSend+MachReceive on a reply port)
//	services   services.respawns_per_iter, services.crash_reports_per_iter,
//	           services.exc_raised_per_iter (count)
//	fault      fault.injected_per_iter (count), fault.consult_ns (ns)
//	replay     replay.decisions_per_iter (count)
//	diplomat   diplomat.calls_per_iter (count), diplomat.call_ns (ns, a
//	           wrapped libGLESv2.so#glEnable)
//	dalvik     dalvik.ns_per_bytecode (ns, an assembled sum loop divided
//	           by the VM's executed count)
//	vfs        vfs.lookup_ns (ns)
//	trace      trace.overhead_frac (ratio, traced over untraced
//	           iter_ms_p50, minus 1)
//	go         go.gc_per_iter, go.mallocs_per_iter (count),
//	           go.gc_pause_ms_per_iter (ms), go.retained_mb_per_iter (MB of
//	           live heap left after a full collection),
//	           go.goroutines_left_per_iter (count of goroutines still
//	           running), all from the untraced workers' timed iterations
//	recon      recon.explained_frac (ratio), recon.residual_ms_per_iter,
//	           recon.<term>_ms_per_iter (ms)
//
// # Reconciliation
//
// recon models one iteration's host time as a sum of count × unit cost
// over terms that do not overlap, and compares it with the untraced
// iter_ms_p50:
//
//	core_boot    Σ core boots × core.boot_us of that configuration
//	kernel_boot  bare kernel boots × kernel.boot_us
//	syscall      syscalls × kernel.null_syscall_ns of their persona
//	switch       sim blocks × sim.switch_ns
//	dyld         dyld images × net exec cost per image
//	fork         forks × net fork+exit cost, per persona
//	diplomat     diplomat calls × net call cost
//	mach         mach_msg calls × net cost per message
//
// A microbenchmark's net cost is its time minus its own syscalls, blocks
// and (for fork) images at their unit costs, counted by running the op
// once on a traced system. recon.explained_frac is the sum over
// iter_ms_p50; recon.residual_ms_per_iter is iter_ms_p50 minus the sum,
// reported whatever its sign. Dalvik bytecodes, VFS lookups and Go GC
// have no per-iteration count yet, so their time stays in the residual.
//
// # Which end-to-end metric each layer should move
//
//	core, sim          iter_ms_p50 on fig5 (about 1.2 blocks per syscall),
//	                   not on fig6 (4 boots, few blocks)
//	kernel             iter_ms_p50 on fig5, then fig6 and diffcheck
//	dyld               iter_ms_p50 on soak-crash, cell_ms_p95 on fig5;
//	                   not diffcheck, which loads no dylibs
//	libsystem, bionic  cell_ms_p95 on fig5 (the fork cells)
//	xnu, services      iter_ms_p50 on soak-crash only
//	fault, replay      iter_ms_p50 on soak-crash and diffcheck
//	diplomat           cell_ms_p95 on fig6 (the cider-ios 3D cell)
//	dalvik             iter_ms_p50 on fig6 (the Android cells), not fig5
//	vfs                fig6 (storage tests) and diffcheck
//	go                 alloc_mb_per_iter and max_rss_mb everywhere;
//	                   iter_ms_p50 most on soak-crash and diffcheck, which
//	                   allocate the most per iteration
//	trace              none; tracing must stay cheap
//
// # Spans
//
// -spans FILE writes the spans of a -trace 1 run as JSON (id, parent,
// name, start, end and self time in ns, on the driver's clock): one root
// "worker" per worker process, holding "micro.<name>" per
// microbenchmark, or "iter" → "cell" → "core.boot" (cell start to the
// OnSystem hook) and "cell.run" (hook to return) for fig5 and fig6.
//
// # Result files
//
// -out FILE writes the printed result together with the host context
// (go_version, nproc, gomaxprocs, workload, seed, seconds, worker,
// iteration and cell counts, and the tail-sample count behind
// cell_ms_p95). `hostbench diff` compares two sets of such files; see
// diff.go.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/persona"
)

//go:embed golden.json
var goldenJSON []byte

// minWorkers is the least number of workers of each pass: setup_s is the
// median over the workers of a -trace 0 run.
const minWorkers = 5

// microTime is the testing.Benchmark time per microbenchmark;
// quickMicroTime is the quick battery's.
const (
	microTime      = "100ms"
	quickMicroTime = "1ms"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostContext is what must match for two result files to be comparable.
type hostContext struct {
	GoVersion        string  `json:"go_version"`
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Workload         string  `json:"workload"`
	Seed             uint64  `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Traced           bool    `json:"traced"`
	PerWorker        int     `json:"iterations_per_worker"`
	Workers          int     `json:"workers"`
	Iterations       int     `json:"iterations"`
	Cells            int     `json:"cells"`
	TailSamples      int     `json:"tail_samples"`
	TracedWorkers    int     `json:"traced_workers"`
	TracedIterations int     `json:"traced_iterations"`
}

// resultFile is the -out document.
type resultFile struct {
	Context hostContext `json:"context"`
	result
}

type options struct {
	workload string
	seed     uint64
	measure  time.Duration
	traced   bool
	// quick, which only tests set, runs one worker of one timed iteration
	// over the workload's quick battery in each pass.
	quick  bool
	golden map[string]string
}

// outcome is a run's result plus what tests and -spans read.
type outcome struct {
	result
	context hostContext
	check   *checker
	spans   *spans
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			os.Exit(runDiff(os.Args[2:]))
		case "worker":
			os.Exit(workerMain(os.Args[2:], os.Stdout))
		}
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed that orders the workload's cells")
	seconds := flag.Int("seconds", 25, "host seconds to measure for")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	out := flag.String("out", "", "also write the result and host context to this file")
	spansOut := flag.String("spans", "", "with -trace 1, write the run's spans to this file")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *traceFlag))
	}
	golden, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	o, err := run(options{
		workload: *workload, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, golden: golden,
	})
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(o.Metrics))
	for name := range o.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %v %s\n", name, o.Metrics[name].Value, o.Metrics[name].Unit)
	}
	ctx, err := json.Marshal(o.context)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("context %s\n", ctx)
	if *out != "" {
		buf, err := json.MarshalIndent(resultFile{Context: o.context, result: o.result}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *spansOut != "" && o.spans != nil {
		if err := o.spans.write(*spansOut); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(o.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !o.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
	os.Exit(1)
}

func loadGolden() (map[string]string, error) {
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return golden, nil
}

// pass is what the workers of one kind reported together.
type pass struct {
	sample
	workers int
	setupS  []float64
	rssMB   []float64
	goDelta
	counts *counts
}

func (p *pass) iterations() float64 { return float64(len(p.iterMS)) }

// run measures one workload: with o.traced the microbenchmarks, then the
// untraced workers, then with o.traced the traced workers.
func run(o options) (*outcome, error) {
	k, ok := perWorker[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	workers, quick := minWorkers, []string(nil)
	if o.quick {
		k, workers, quick = 1, 1, []string{"-quick"}
	}
	out := &outcome{check: newChecker(o.golden)}
	rng := splitmix(o.seed)
	start := time.Now()
	var m *micros
	plainUntil := start.Add(o.measure)
	if o.traced {
		out.spans = newSpans()
		rep, _, err := out.launch(append([]string{"-micros"}, quick...)...)
		if err != nil {
			return nil, err
		}
		m = rep.Micros
		plainUntil = start.Add(o.measure / 2)
	}
	var plain, traced pass
	if err := out.runPass(&plain, o.workload, k, workers, quick, &rng, false, plainUntil); err != nil {
		return nil, err
	}
	if o.traced {
		if err := out.runPass(&traced, o.workload, k, workers, quick, &rng, true, start.Add(o.measure)); err != nil {
			return nil, err
		}
	}

	p95 := quantile(plain.cellMS, 0.95)
	tail := 0
	for _, v := range plain.cellMS {
		if v > p95 {
			tail++
		}
	}
	out.context = hostContext{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: o.workload, Seed: o.seed, Seconds: o.measure.Seconds(), Traced: o.traced,
		PerWorker: k, Workers: plain.workers, Iterations: len(plain.iterMS), Cells: len(plain.cellMS),
		TailSamples: tail, TracedWorkers: traced.workers, TracedIterations: len(traced.iterMS),
	}
	if o.traced {
		out.Metrics = layerMetrics(*traced.counts, m, &plain, &traced)
	} else {
		out.Metrics = map[string]metric{
			"setup_s":           {quantile(plain.setupS, 0.5), "s"},
			"iter_ms_p50":       {quantile(plain.iterMS, 0.5), "ms"},
			"cell_ms_p95":       {p95, "ms"},
			"alloc_mb_per_iter": {float64(plain.AllocBytes) / 1e6 / plain.iterations(), "MB"},
			"max_rss_mb":        {quantile(plain.rssMB, 0.5), "MB"},
		}
	}
	out.Attempted, out.Failed = out.check.attempted, out.check.failed()
	out.Correct = out.Failed == 0
	return out, nil
}

// runPass starts workers of k timed iterations one after another, each
// with the next seed from rng and the extra arguments, until at least
// workers have run and the clock has reached until.
func (out *outcome) runPass(p *pass, workload string, k, workers int, extra []string, rng *splitmix, traced bool, until time.Time) error {
	for p.workers < workers || time.Now().Before(until) {
		args := append([]string{"-workload", workload, "-seed", fmt.Sprint(rng.next()), "-iterations", fmt.Sprint(k)}, extra...)
		if traced {
			args = append(args, "-trace")
		}
		rep, setup, err := out.launch(args...)
		if err != nil {
			return err
		}
		out.check.add(rep)
		p.workers++
		p.add(sample{rep.IterMS, rep.CellMS})
		p.setupS = append(p.setupS, setup)
		p.rssMB = append(p.rssMB, rep.MaxRSSMB)
		p.AllocBytes += rep.Go.AllocBytes
		p.Mallocs += rep.Go.Mallocs
		p.GCs += rep.Go.GCs
		p.PauseNS += rep.Go.PauseNS
		p.RetainedBytes += rep.Go.RetainedBytes
		p.GoroutinesLeft += rep.Go.GoroutinesLeft
		if !traced {
			continue
		}
		if rep.Counts == nil {
			return fmt.Errorf("traced worker reported no counts")
		}
		if p.counts == nil {
			p.counts = rep.Counts
		} else if *rep.Counts != *p.counts {
			return fmt.Errorf("traced workers counted different work per iteration")
		}
	}
	return nil
}

// launch runs one worker process to completion and returns its report
// and the seconds from its start to its ready line. With spans on, the
// worker's spans join them under a "worker" span.
func (out *outcome) launch(args ...string) (*report, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, append([]string{"worker"}, args...)...)
	cmd.Stderr = os.Stderr
	// A worker must not outlive a driver that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	var id int
	if out.spans != nil {
		id = out.spans.begin("worker", 0)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var setup float64
	var readyAt int64
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 256<<20)
	for sc.Scan() {
		if sc.Text() == readyLine {
			setup = time.Since(start).Seconds()
			if out.spans != nil {
				readyAt = time.Since(out.spans.t0).Nanoseconds()
			}
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Let the worker finish writing, or Wait would wait on it forever.
		io.Copy(io.Discard, stdout)
	}
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("worker %s: %w", strings.Join(args, " "), err)
	}
	if scanErr != nil {
		return nil, 0, fmt.Errorf("worker %s: %w", strings.Join(args, " "), scanErr)
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, 0, fmt.Errorf("worker %s: report: %w", strings.Join(args, " "), err)
	}
	if out.spans != nil {
		out.spans.end(id)
		// A worker's span clock starts as it prints its ready line.
		out.spans.adopt(id, readyAt, rep.Spans)
	}
	return &rep, setup, nil
}

// checker compares every digest the workers saw with its golden value.
type checker struct {
	golden    map[string]string
	seen      map[string]string // the digest each cell last produced
	failures  map[string]int
	attempted int
}

func newChecker(golden map[string]string) *checker {
	return &checker{golden: golden, seen: map[string]string{}, failures: map[string]int{}}
}

// add checks one worker's report.
func (k *checker) add(rep *report) {
	keys := make([]string, 0, len(rep.Cells))
	for key := range rep.Cells {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		c := rep.Cells[key]
		k.attempted += c.Errors
		if c.Errors > 0 {
			k.fail(key, c.Errors, c.Err)
		}
		for d, n := range c.Digests {
			k.attempted += n
			k.seen[key] = d
			if k.golden[key] != d {
				k.fail(key, n, fmt.Sprintf("digest %s, golden %q", d, k.golden[key]))
			}
		}
	}
}

func (k *checker) fail(key string, n int, why string) {
	if k.failures[key] == 0 {
		fmt.Fprintf(os.Stderr, "hostbench: cell %s failed: %s\n", key, why)
	}
	k.failures[key] += n
}

func (k *checker) failed() int {
	n := 0
	for _, f := range k.failures {
		n += f
	}
	return n
}

// layerMetrics assembles the per-layer metrics from one traced
// iteration's counts, the microbenchmarks, and the two passes.
func layerMetrics(c counts, m *micros, plain, traced *pass) map[string]metric {
	iters := plain.iterations()
	iterMS := quantile(plain.iterMS, 0.5)
	terms := reconcile(c, m)
	var explainedMS float64
	out := map[string]metric{}
	for name, ms := range terms {
		explainedMS += ms
		out["recon."+name+"_ms_per_iter"] = metric{ms, "ms"}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	count := func(v uint64) metric { return metric{float64(v), "count"} }
	syscalls := c.Syscalls[persona.Android] + c.Syscalls[persona.IOS]
	for name, v := range map[string]metric{
		"core.boots_per_iter":             count(c.CoreBoots[0] + c.CoreBoots[1] + c.CoreBoots[2]),
		"core.boot_share":                 {ratio(terms["core_boot"], iterMS), "ratio"},
		"kernel.boots_per_iter":           count(c.KernelBoots),
		"kernel.boot_us":                  {m.KernelBoot.NS / 1e3, "us"},
		"kernel.syscalls_per_iter":        count(syscalls),
		"kernel.syscall_errors_per_iter":  count(c.Errors),
		"kernel.forks_per_iter":           count(c.Forks[persona.Android] + c.Forks[persona.IOS]),
		"kernel.execs_per_iter":           count(c.Execs),
		"kernel.null_syscall_ns.android":  {m.Null[persona.Android].NS, "ns"},
		"kernel.null_syscall_ns.ios":      {m.Null[persona.IOS].NS, "ns"},
		"kernel.ns_per_sim_syscall":       {ratio(iterMS*1e6, float64(syscalls)), "ns"},
		"sim.blocks_per_iter":             count(c.Blocks),
		"sim.wakes_per_iter":              count(c.Wakes),
		"sim.spawns_per_iter":             count(c.Spawns),
		"sim.blocks_per_syscall":          {ratio(float64(c.Blocks), float64(syscalls)), "ratio"},
		"sim.switch_ns":                   {m.SwitchNS, "ns"},
		"sim.switch_allocs":               {m.SwitchAllocs, "count"},
		"dyld.images_per_iter":            count(c.Images),
		"dyld.binds_per_iter":             count(c.Binds),
		"dyld.exec_ios_us":                {m.Exec.NS / 1e3, "us"},
		"libsystem.fork_exit_ios_us":      {m.Fork[persona.IOS].NS / 1e3, "us"},
		"bionic.fork_exit_android_us":     {m.Fork[persona.Android].NS / 1e3, "us"},
		"xnu.mach_msgs_per_iter":          count(c.MachMsgs),
		"xnu.mach_send_recv_ns":           {m.Mach.NS, "ns"},
		"services.respawns_per_iter":      count(c.Respawns),
		"services.crash_reports_per_iter": count(c.Reports),
		"services.exc_raised_per_iter":    count(c.ExcRaised),
		"fault.injected_per_iter":         count(c.Injected),
		"fault.consult_ns":                {m.Consult.NS, "ns"},
		"replay.decisions_per_iter":       count(c.Decisions),
		"diplomat.calls_per_iter":         count(c.Diplomat),
		"diplomat.call_ns":                {m.Diplomat.NS, "ns"},
		"dalvik.ns_per_bytecode":          {m.BytecodeNS, "ns"},
		"vfs.lookup_ns":                   {m.Lookup.NS, "ns"},
		"trace.overhead_frac":             {ratio(quantile(traced.iterMS, 0.5), iterMS) - 1, "ratio"},
		"go.gc_per_iter":                  {float64(plain.GCs) / iters, "count"},
		"go.gc_pause_ms_per_iter":         {float64(plain.PauseNS) / 1e6 / iters, "ms"},
		"go.mallocs_per_iter":             {float64(plain.Mallocs) / iters, "count"},
		"go.retained_mb_per_iter":         {float64(plain.RetainedBytes) / 1e6 / iters, "MB"},
		"go.goroutines_left_per_iter":     {float64(plain.GoroutinesLeft) / iters, "count"},
		"recon.explained_frac":            {ratio(explainedMS, iterMS), "ratio"},
		"recon.residual_ms_per_iter":      {iterMS - explainedMS, "ms"},
	} {
		out[name] = v
	}
	for cfg, name := range map[core.Config]string{core.ConfigVanilla: "android-vanilla", core.ConfigCider: "cider", core.ConfigIPad: "ipad"} {
		out["core.boot_us."+name] = metric{m.CoreBoot[cfg].NS / 1e3, "us"}
	}
	return out
}

// reconcile models one iteration's host time, in ms, as count × unit
// cost over terms that do not overlap (see the package doc).
func reconcile(c counts, m *micros) map[string]float64 {
	sysNS := func(w counts) float64 {
		return float64(w.Syscalls[persona.Android])*m.Null[persona.Android].NS +
			float64(w.Syscalls[persona.IOS])*m.Null[persona.IOS].NS
	}
	// net is an op's time beyond the syscalls and handoffs it makes.
	net := func(x micro) float64 { return x.NS - sysNS(x.Own) - float64(x.Own.Blocks)*m.SwitchNS }
	per := func(total float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	perImage := per(net(m.Exec), m.Exec.Own.Images)
	var coreBoot, fork float64
	for cfg, n := range c.CoreBoots {
		coreBoot += float64(n) * m.CoreBoot[cfg].NS
	}
	for k, n := range c.Forks {
		f := m.Fork[k]
		fork += float64(n) * per(net(f)-float64(f.Own.Images)*perImage, f.Own.Forks[k])
	}
	const ms = 1e6
	return map[string]float64{
		"core_boot":   coreBoot / ms,
		"kernel_boot": float64(c.KernelBoots) * m.KernelBoot.NS / ms,
		"syscall":     sysNS(c) / ms,
		"switch":      float64(c.Blocks) * m.SwitchNS / ms,
		"dyld":        float64(c.Images) * perImage / ms,
		"fork":        fork / ms,
		"diplomat":    float64(c.Diplomat) * per(net(m.Diplomat), m.Diplomat.Own.Diplomat) / ms,
		"mach":        float64(c.MachMsgs) * per(net(m.Mach), m.Mach.Own.MachMsgs) / ms,
	}
}
