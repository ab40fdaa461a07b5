package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden.json from this tree's cell digests")

// TestMain lets the test binary serve as the driver's worker process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(workerMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

// runOnce runs one workload's quick battery with one worker of a single
// timed iteration per pass.
func runOnce(t *testing.T, workload string, seed uint64, traced bool, golden map[string]string) *outcome {
	t.Helper()
	o, err := run(options{workload: workload, seed: seed, traced: traced, quick: true, golden: golden})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return o
}

func mustGolden(t *testing.T) map[string]string {
	t.Helper()
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestGolden checks every workload's cells against golden.json, or with
// -update rewrites it.
func TestGolden(t *testing.T) {
	golden := mustGolden(t)
	if *update {
		golden = map[string]string{}
	}
	seen := map[string]string{}
	for _, w := range workloadNames {
		wl, err := newWorkload(w, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		rep := &report{Cells: map[string]*cellRuns{}}
		iterate(wl, rep, nil, &sample{})
		k := newChecker(golden)
		k.add(rep)
		for key, d := range k.seen {
			seen[key] = d
		}
		if !*update && k.failed() > 0 {
			t.Errorf("%s: %d cell(s) failed the golden check: %v", w, k.failed(), k.failures)
		}
		if n := len(wl.next()); len(k.seen) != n {
			t.Errorf("%s: %d of %d cells produced a digest", w, len(k.seen), n)
		}
	}
	if *update {
		buf, err := json.MarshalIndent(seen, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGateCatchesCorruptDigest corrupts one golden digest and expects
// exactly that cell, and no other, to count as failed.
func TestGateCatchesCorruptDigest(t *testing.T) {
	golden := mustGolden(t)
	const victim = "fig5/cider-ios/fork+exec(ios)"
	if _, ok := golden[victim]; !ok {
		t.Fatalf("golden.json has no %q", victim)
	}
	corrupt := map[string]string{}
	for k, v := range golden {
		corrupt[k] = v
	}
	corrupt[victim] = "0000000000000000"
	o := runOnce(t, "fig5", 1, false, corrupt)
	if o.Correct || o.Failed == 0 {
		t.Fatalf("corrupt golden digest not caught: correct=%v failed=%d", o.Correct, o.Failed)
	}
	for key := range o.check.failures {
		if key != victim {
			t.Errorf("cell %s failed, want only %s", key, victim)
		}
	}
	// One failure each for every worker's warm-up and timed iterations.
	if got, want := o.check.failures[victim], o.context.Workers*(o.context.PerWorker+1); got != want {
		t.Errorf("%s failed %d time(s), want once per iteration (%d)", victim, got, want)
	}
}

// TestSeedPermutesOrderOnly expects two seeds to order the cells
// differently while every cell produces the same digest.
func TestSeedPermutesOrderOnly(t *testing.T) {
	golden := mustGolden(t)
	keys := func(w string, seed uint64) []string {
		wl, err := newWorkload(w, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range wl.next() {
			out = append(out, c.key)
		}
		return out
	}
	for _, w := range []string{"fig5", "diffcheck"} {
		ao, bo := keys(w, 1), keys(w, 2)
		if slices.Equal(ao, bo) {
			t.Errorf("%s: seeds 1 and 2 gave the same cell order", w)
		}
		slices.Sort(ao)
		slices.Sort(bo)
		if !slices.Equal(ao, bo) {
			t.Errorf("%s: seeds 1 and 2 ran different cells", w)
		}
		a := runOnce(t, w, 1, false, golden)
		b := runOnce(t, w, 2, false, golden)
		for key, d := range a.check.seen {
			if b.check.seen[key] != d {
				t.Errorf("%s: cell %s digest %s under seed 1, %s under seed 2", w, key, d, b.check.seen[key])
			}
		}
		if !a.Correct || !b.Correct {
			t.Errorf("%s: failed cells: %v / %v", w, a.check.failures, b.check.failures)
		}
	}
}

// TestMetricsMatchBenchmarkJSON runs every workload once in each mode and
// expects exactly the metric names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var def struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	golden := mustGolden(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			o := runOnce(t, w, 1, traced, golden)
			if !o.Correct {
				t.Errorf("%s traced=%v: failed cells %v", w, traced, o.check.failures)
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(o.Metrics), len(want))
			}
			for _, m := range want {
				if !valid.MatchString(m.Name) {
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
				}
				got, ok := o.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += d
		}
		return out
	}
	for _, c := range []struct {
		name string
		old  []float64
		new  []float64
		want string
	}{
		{"same", base, base, "ok"},
		{"slower beyond bound", base, shift(20), "REGRESSION"},
		{"slower within bound", base, shift(5), "ok"},
		{"faster in every pair", base, shift(-8), "improved"},
		{"noisy parent", []float64{50, 150, 60, 140, 100, 55, 145, 100, 90, 110}, shift(0), "unresolved"},
		{"noisy parent, change beats all", []float64{150, 160, 170, 180, 200, 190, 175, 165, 155, 185}, shift(0), "improved"},
	} {
		if got := judge(c.old, c.new, 0.1, true); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareRunsCoverage expects the comparison to refuse sets that do
// not cover the same workloads and metrics.
func TestCompareRunsCoverage(t *testing.T) {
	var sp spec
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &sp); err != nil {
		t.Fatal(err)
	}
	runs := func(workload string, scale float64, n int) []resultFile {
		var out []resultFile
		for i := 0; i < n; i++ {
			r := resultFile{Context: hostContext{Workload: workload, Seed: uint64(i + 1)}}
			r.Attempted, r.Metrics = 100, map[string]metric{}
			for _, m := range sp.EndToEnd {
				r.Metrics[m.Name] = metric{scale * (100 + float64(i%3)), m.Unit}
			}
			out = append(out, r)
		}
		return out
	}
	set := func(scale float64) map[string][]resultFile {
		return map[string][]resultFile{"fig5": runs("fig5", scale, 5), "fig6": runs("fig6", scale, 5)}
	}
	if got := compareRuns(sp, set(1), set(1)); got != 0 {
		t.Errorf("same runs: exit %d, want 0", got)
	}
	if got := compareRuns(sp, set(1), set(2)); got != 1 {
		t.Errorf("twice as slow: exit %d, want 1", got)
	}
	noFig6 := set(1)
	delete(noFig6, "fig6")
	if got := compareRuns(sp, set(1), noFig6); got != 2 {
		t.Errorf("change without fig6 runs: exit %d, want 2", got)
	}
	dropped := set(1)
	delete(dropped["fig5"][3].Metrics, "iter_ms_p50")
	if got := compareRuns(sp, set(1), dropped); got != 2 {
		t.Errorf("change run without iter_ms_p50: exit %d, want 2", got)
	}
}
