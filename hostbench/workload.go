package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/diffcheck"
	"repro/internal/lmbench"
	"repro/internal/passmark"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/trace"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fig5", "fig6", "soak-crash", "diffcheck"}

// perWorker is how many timed iterations one worker process runs: about
// a host second of work, and few enough that what the simulator leaks
// per iteration (parked daemon goroutines, most of all on soak-crash)
// stays small.
var perWorker = map[string]int{"fig5": 16, "fig6": 12, "soak-crash": 2, "diffcheck": 5}

// diffcheckPrograms is how many generated programs one diffcheck
// iteration runs. Seeds 1..60 are the set `make diffcheck-smoke` keeps
// free of divergences, so no cell of this workload is expected to fail.
const diffcheckPrograms = 60

// The quick battery is a subset of every workload's cells, with digests
// unchanged, that keeps the package's tests short under -race: three
// lmbench tests (one of them the fork+exec cell the gate test corrupts)
// on fig5 and soak-crash, the first PassMark configuration on fig6, and
// the first four programs on diffcheck.
var quickLmbench = []string{"null syscall", "open/close", "fork+exec(ios)"}

const (
	quickPassmarkConfigs = 1
	quickPrograms        = 4
)

// lmbenchTests returns the lmbench tests a workload runs: all of them,
// or with quick only those named in quickLmbench.
func lmbenchTests(all []lmbench.Test, quick bool) []lmbench.Test {
	if !quick {
		return all
	}
	var out []lmbench.Test
	for _, t := range all {
		if slices.Contains(quickLmbench, t.Name) {
			out = append(out, t)
		}
	}
	return out
}

// cell is one simulated system the harness drives, boot to return.
type cell struct {
	// key names the cell in golden.json and in failure reports.
	key string
	// run executes the cell and returns the digest of its virtual-time
	// outputs. p is nil on the untraced run.
	run func(p *probe) (uint64, error)
}

// workload is one benchmark input: its cells, grouped into units that
// always run back to back, plus the layer counters that no single cell
// can report.
type workload struct {
	name  string
	units [][]cell
	// rng orders the units afresh for every iteration.
	rng   splitmix
	order []cell
	// counters, when non-nil, runs one more iteration's worth of work on
	// the traced pass and adds the counters it observes to c.
	counters func(c *counts) error
}

// next returns the cells of the next iteration: the units in a new
// permutation drawn from the seed's stream. Every cell is a fresh system,
// so its digest does not depend on the order, and every seed runs the
// same work; drawing a new order per iteration keeps any effect the
// order has on host time from differing between seeds.
func (w *workload) next() []cell {
	shuffle(w.units, &w.rng)
	w.order = w.order[:0]
	for _, u := range w.units {
		w.order = append(w.order, u...)
	}
	return w.order
}

func (w *workload) add(cells ...cell) { w.units = append(w.units, cells) }

// newWorkload builds a workload's cells, or with quick its quick
// battery; seed drives their order.
func newWorkload(name string, seed uint64, quick bool) (*workload, error) {
	w := &workload{name: name, rng: splitmix(seed)}
	switch name {
	case "fig5":
		for _, c := range lmbench.Cells(lmbenchTests(lmbench.AllTests(), quick)) {
			w.add(cell{key: "fig5/" + c.Config.Name + "/" + c.Test.Name, run: func(p *probe) (uint64, error) {
				rs, err := lmbench.RunWith(c.Config, []lmbench.Test{c.Test}, p.hook(c.Config.System))
				p.ran()
				if err != nil {
					return 0, err
				}
				d := newDigest()
				for _, r := range rs {
					d.str(r.Test)
					d.str(r.Config)
					d.u64(uint64(r.Latency))
					d.flag(r.Failed)
				}
				return d.sum(), nil
			}})
		}
	case "fig6":
		confs := passmark.Configurations()
		if quick {
			confs = confs[:quickPassmarkConfigs]
		}
		for _, conf := range confs {
			w.add(cell{key: "fig6/" + conf.Name, run: func(p *probe) (uint64, error) {
				rs, err := passmark.RunWith(conf, passmark.AllTests(), p.hook(conf.System))
				p.ran()
				if err != nil {
					return 0, err
				}
				d := newDigest()
				for _, r := range rs {
					d.str(r.Test)
					d.u64(math.Float64bits(r.Score))
					d.flag(r.Err != nil)
				}
				return d.sum(), nil
			}})
		}
	case "soak-crash":
		s, ok := soak.ScheduleByName("daemon-crash")
		if !ok {
			return nil, fmt.Errorf("soak schedule daemon-crash is missing")
		}
		configs := map[string]core.Config{}
		for _, c := range lmbench.Configurations() {
			configs[c.Name] = c.System
		}
		tests := lmbenchTests(soak.QuickTests(), quick)
		for _, ref := range soak.CellRefs(tests, false) {
			w.add(cell{key: "soak-crash/" + ref.String(), run: func(p *probe) (uint64, error) {
				_, rep := soak.RecordCell(s, ref, nil, 0)
				p.tally(func(c *counts) {
					// lmbench cells boot a core.System; the mach cell
					// boots a bare kernel.
					if ref.Bench == "mach" {
						c.KernelBoots++
					} else {
						c.CoreBoots[configs[ref.Config]]++
					}
					c.Decisions += rep.DecisionCount
				})
				if len(rep.Findings) > 0 {
					return 0, fmt.Errorf("findings: %s", strings.Join(rep.Findings, "; "))
				}
				d := newDigest()
				d.u64(rep.Digest)
				d.u64(uint64(rep.Failed))
				d.u64(rep.Injected)
				return d.sum(), nil
			}})
		}
		// RecordCell keeps each cell's trace session to itself; the
		// schedule-level run exports the summed counters of the same
		// cells.
		w.counters = func(c *counts) error {
			r := soak.RunSchedule(s, soak.Options{Jobs: 1, Tests: tests, NoRecord: true})
			if err := r.Err(); err != nil {
				return err
			}
			c.addCounters(r.Counters)
			return nil
		}
	case "diffcheck":
		allow := diffcheck.DefaultAllowlist()
		programs := uint64(diffcheckPrograms)
		if quick {
			programs = quickPrograms
		}
		for ps := uint64(1); ps <= programs; ps++ {
			prog, plan := diffcheck.Generate(ps), diffcheck.PlanFor(ps)
			// A program's two cells form one unit: the android cell runs
			// just before the ios cell, which compares the two results.
			var android *diffcheck.CellResult
			var pair []cell
			for _, ios := range []bool{false, true} {
				side := "android"
				if ios {
					side = "ios"
				}
				pair = append(pair, cell{key: fmt.Sprintf("diffcheck/%03d/%s", ps, side), run: func(p *probe) (uint64, error) {
					res := diffcheck.RunCellDecided(prog, ios, plan, p.decider())
					p.ran()
					p.tally(func(c *counts) { c.addDiffcheckCell(res) })
					if !ios {
						android = res
					}
					if res.Err != "" || res.LeakErr != "" {
						return 0, fmt.Errorf("cell: %s%s", res.Err, res.LeakErr)
					}
					if ios {
						divs, _ := diffcheck.Filter(diffcheck.Compare(ps, android, res), allow)
						if len(divs) > 0 {
							return 0, fmt.Errorf("%d divergence(s), first: %s", len(divs), divs[0])
						}
					}
					return digestDiffcheckCell(res), nil
				}})
			}
			w.add(pair...)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// digestDiffcheckCell folds everything deterministic a diffcheck cell
// produced: the per-op result log, the normalized event streams, and
// the counters. The golden value catches a kernel change that moves both
// personas alike, which the persona comparison cannot see.
func digestDiffcheckCell(res *diffcheck.CellResult) uint64 {
	d := newDigest()
	for _, line := range res.Log {
		d.str(line)
	}
	for _, proc := range res.Procs {
		d.str(proc)
		for _, line := range res.Events[proc] {
			d.str(line)
		}
	}
	names := make([]string, 0, len(res.Counters))
	for name := range res.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.str(name)
		d.u64(res.Counters[name])
	}
	d.u64(res.Dropped)
	return d.sum()
}

// probe is the traced pass's view into each cell: it counts the work
// every layer did and records spans at the layer boundaries the harness
// can see. A nil *probe is the untraced run; every method accepts it.
type probe struct {
	c     counts
	spans *spans
	// cell is the open "cell" span; bootSpan and runSpan its children.
	cell, bootSpan, runSpan int
	sess                    *trace.Session
	rec                     *replay.Recorder
}

// hook returns the OnSystem hook for a figure battery cell of the given
// configuration: it closes the core.boot span, opens cell.run, and
// attaches a stats-only trace session and a decision recorder.
func (p *probe) hook(cfg core.Config) func(*core.System) {
	if p == nil {
		return nil
	}
	p.bootSpan = p.spans.begin("core.boot", p.cell)
	return func(sys *core.System) {
		p.spans.end(p.bootSpan)
		p.runSpan = p.spans.begin("cell.run", p.cell)
		p.c.CoreBoots[cfg]++
		p.sess = sys.EnableTrace()
		p.sess.SetRingCapacity(0)
		p.rec = replay.NewRecorder(nil)
		sys.Sim.SetDecider(p.rec)
	}
}

// decider returns a fresh recorder for a cell that takes a scheduler
// Decider, or nil (no decider at all) on the untraced run.
func (p *probe) decider() sim.Decider {
	if p == nil {
		return nil
	}
	p.rec = replay.NewRecorder(nil)
	return p.rec
}

// ran collects what the cell's session and recorder saw and closes the
// cell.run span.
func (p *probe) ran() {
	if p == nil {
		return
	}
	if p.runSpan != 0 {
		p.spans.end(p.runSpan)
		p.runSpan = 0
	}
	if p.sess != nil {
		p.c.addSession(p.sess)
		p.sess = nil
	}
	if p.rec != nil {
		p.c.Decisions += p.rec.Count()
		p.rec = nil
	}
}

// tally applies f to the counts on the traced pass.
func (p *probe) tally(f func(c *counts)) {
	if p != nil {
		f(&p.c)
	}
}

// splitmix is the splitmix64 generator the seed drives.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffle permutes xs with a Fisher–Yates shuffle driven by r.
func shuffle[T any](xs []T, r *splitmix) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// digest is FNV-1a 64 over mixed-type records.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 0xcbf29ce484222325} }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= uint64(byte(v >> (8 * i)))
		d.h *= 0x100000001b3
	}
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 0x100000001b3
	}
}

func (d *digest) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) sum() uint64 { return d.h }
