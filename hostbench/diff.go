package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runDiff compares a parent's set of result files with a change's, per
// workload and metric, by the rules of judge. It exits 1 on a regression
// or on more failed cells, and 2 on unusable input or on sets that do not
// cover the same workloads and metrics. Otherwise it exits 0, and its
// last line reads "unresolved" rather than "ok" when some metric varied
// more between the parent's runs than its bound.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	oldGlob := fs.String("old", "", "glob of the parent's result files (-out of each run)")
	newGlob := fs.String("new", "", "glob of the change's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sp spec
	// run.sh builds the command into .bench_build/ at the repository
	// root, beside BENCHMARK.json.
	exe, err := os.Executable()
	if err == nil {
		var buf []byte
		if buf, err = os.ReadFile(filepath.Join(filepath.Dir(exe), "..", "BENCHMARK.json")); err == nil {
			err = json.Unmarshal(buf, &sp)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench diff: %v\n", err)
		return 2
	}
	oldRuns, err := loadRuns(*oldGlob)
	if err == nil {
		var newRuns map[string][]resultFile
		if newRuns, err = loadRuns(*newGlob); err == nil {
			return compareRuns(sp, oldRuns, newRuns)
		}
	}
	fmt.Fprintf(os.Stderr, "hostbench diff: %v\n", err)
	return 2
}

// loadRuns reads result files and groups them by workload.
func loadRuns(glob string) (map[string][]resultFile, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(paths)
	runs := map[string][]resultFile{}
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs[r.Context.Workload] = append(runs[r.Context.Workload], r)
	}
	return runs, nil
}

// mismatch reports why two runs' host contexts make them incomparable,
// or "" when they match.
func mismatch(a, b hostContext) string {
	switch {
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go version %s vs %s", a.GoVersion, b.GoVersion)
	case a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("nproc/GOMAXPROCS %d/%d vs %d/%d", a.NProc, a.GOMAXPROCS, b.NProc, b.GOMAXPROCS)
	case a.Seconds != b.Seconds || a.Traced != b.Traced:
		return fmt.Sprintf("run length/trace %gs/%v vs %gs/%v", a.Seconds, a.Traced, b.Seconds, b.Traced)
	case a.PerWorker != b.PerWorker:
		return fmt.Sprintf("iterations per worker %d vs %d", a.PerWorker, b.PerWorker)
	}
	return ""
}

// covered reports why two sets of runs cannot be compared metric by
// metric, or "" when they can: both sides must hold the same workloads,
// every run of a workload the same host context, and every run every
// metric its mode declares (end-to-end untraced, per-layer traced).
func covered(sp spec, oldRuns, newRuns map[string][]resultFile) string {
	for _, w := range workloadNames {
		olds, news := oldRuns[w], newRuns[w]
		if (len(olds) == 0) != (len(news) == 0) {
			return fmt.Sprintf("%s: %d parent run(s), %d change run(s)", w, len(olds), len(news))
		}
		for _, r := range slices.Concat(olds, news) {
			if why := mismatch(olds[0].Context, r.Context); why != "" {
				return fmt.Sprintf("%s: runs are not comparable: %s", w, why)
			}
			names := sp.endToEndNames()
			if r.Context.Traced {
				names = sp.perLayerNames()
			}
			for _, name := range names {
				if _, ok := r.Metrics[name]; !ok {
					return fmt.Sprintf("%s: a run (seed %d) lacks metric %s", w, r.Context.Seed, name)
				}
			}
		}
	}
	for _, runs := range []map[string][]resultFile{oldRuns, newRuns} {
		for w := range runs {
			if !slices.Contains(workloadNames, w) {
				return fmt.Sprintf("unknown workload %q", w)
			}
		}
	}
	return ""
}

func (sp spec) endToEndNames() []string {
	var out []string
	for _, m := range sp.EndToEnd {
		out = append(out, m.Name)
	}
	return out
}

func (sp spec) perLayerNames() []string {
	var out []string
	for _, m := range sp.PerLayer {
		out = append(out, m.Name)
	}
	return out
}

func compareRuns(sp spec, oldRuns, newRuns map[string][]resultFile) int {
	if why := covered(sp, oldRuns, newRuns); why != "" {
		fmt.Fprintf(os.Stderr, "hostbench diff: %s\n", why)
		return 2
	}
	status, unresolved := 0, 0
	for _, w := range workloadNames {
		olds, news := oldRuns[w], newRuns[w]
		if len(olds) == 0 {
			continue
		}
		fmt.Printf("%s: %d parent run(s), %d change run(s)\n", w, len(olds), len(news))
		of, nf := failedFrac(olds), failedFrac(news)
		mark := "ok"
		if nf > of {
			mark = "REGRESSION"
			status = 1
		}
		fmt.Printf("  %-32s %12.6f -> %12.6f  %s\n", "failed_frac", of, nf, mark)
		if olds[0].Context.Traced {
			for _, m := range sp.PerLayer {
				printRow(m.Name, m.Unit, values(olds, m.Name), values(news, m.Name), "(per-layer)")
			}
			continue
		}
		for _, m := range sp.EndToEnd {
			ov, nv := values(olds, m.Name), values(news, m.Name)
			v := judge(ov, nv, m.Bound, m.Better != "higher")
			switch v {
			case "REGRESSION":
				status = 1
			case "unresolved":
				unresolved++
			}
			printRow(m.Name, m.Unit, ov, nv, fmt.Sprintf("%s (bound %g)", v, m.Bound))
		}
	}
	switch {
	case status != 0:
		fmt.Println("hostbench diff: FAIL")
	case unresolved > 0:
		fmt.Printf("hostbench diff: unresolved: %d metric(s) vary more between the parent's runs than their bound; no regression beyond the bound elsewhere\n", unresolved)
	default:
		fmt.Println("hostbench diff: ok")
	}
	return status
}

func printRow(name, unit string, ov, nv []float64, verdict string) {
	o1, o2, o3 := quartiles(ov)
	n1, n2, n3 := quartiles(nv)
	fmt.Printf("  %-32s %12.4g [%.4g, %.4g] -> %12.4g [%.4g, %.4g] %s  %s\n",
		name, o2, o1, o3, n2, n1, n3, unit, verdict)
}

func failedFrac(runs []resultFile) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func values(runs []resultFile, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge applies the comparison rules to one metric on one workload:
//
//   - unresolved: the parent's interquartile range, as a share of its
//     median, is wider than the bound, and not every change run beats
//     every parent run;
//   - REGRESSION: the change's median is worse than the parent's by more
//     than the bound (a share of the parent's median);
//   - improved: the change wins at least 9 of 10 pairs (run i against
//     run i; ties count for neither) and the medians differ by more than
//     the parent's interquartile range;
//   - ok otherwise.
func judge(old, new []float64, bound float64, lowerIsBetter bool) string {
	better := func(a, b float64) bool {
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	o1, om, o3 := quartiles(old)
	_, nm, _ := quartiles(new)
	allBetter := lowerIsBetter && slices.Max(new) < slices.Min(old) ||
		!lowerIsBetter && slices.Min(new) > slices.Max(old)
	scale := om
	if scale < 0 {
		scale = -scale
	}
	if scale > 0 && (o3-o1)/scale > bound && !allBetter {
		return "unresolved"
	}
	worse := nm - om
	if !lowerIsBetter {
		worse = -worse
	}
	if scale > 0 && worse/scale > bound || scale == 0 && worse > 0 {
		return "REGRESSION"
	}
	pairs, wins := len(old), 0
	if len(new) < pairs {
		pairs = len(new)
	}
	for i := 0; i < pairs; i++ {
		if better(new[i], old[i]) {
			wins++
		}
	}
	gap := nm - om
	if gap < 0 {
		gap = -gap
	}
	if 10*wins >= 9*pairs && gap > o3-o1 && better(nm, om) {
		return "improved"
	}
	return "ok"
}
