package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lmbench"
	"repro/internal/passmark"
)

const fixture = "../../internal/soak/testdata/explored-daemon-crash-mach-x5.json"

// runOK runs one command line and returns what it printed; any error
// fails the test.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("cider %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// mustContain fails the test unless out carries every line fragment.
func mustContain(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// TestReplayFixture replays the checked-in explored artifact through the
// command's dispatch: it must reproduce its recorded digest.
func TestReplayFixture(t *testing.T) {
	mustContain(t, runOK(t, "replay", fixture), "== recorded (bit-identical)")
}

// TestReplayDigestMismatch flips one hex digit of the fixture's recorded
// digest: the replay must fail with a digest mismatch.
func TestReplayDigestMismatch(t *testing.T) {
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	const field = `"digest": "`
	i := strings.Index(string(data), field)
	if i < 0 {
		t.Fatal("fixture has no digest field")
	}
	i += len(field)
	flipped := append([]byte(nil), data...)
	if flipped[i] == '0' {
		flipped[i] = '1'
	} else {
		flipped[i] = '0'
	}
	path := filepath.Join(t.TempDir(), "flipped.json")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"replay", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("replay of a flipped digest: %v, want a digest mismatch", err)
	}
}

// TestSoakVerify drives the soak command's verify path over the clean
// schedule: it must pass and report the jobs=N digest comparison.
func TestSoakVerify(t *testing.T) {
	out := runOK(t, "soak", "-quick", "-schedule", "clean", "-verify", "-artifact-dir", t.TempDir())
	mustContain(t, out, "deterministic@jobs=")
}

// TestSoakUnknownSchedule pins the schedule-name check.
func TestSoakUnknownSchedule(t *testing.T) {
	err := run([]string{"soak", "-quick", "-schedule", "clean,no-such-schedule"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown schedule") {
		t.Fatalf("soak over an unknown schedule: %v, want an unknown-schedule error", err)
	}
}

// figures are the two §6 figure subcommands: the group a test runs
// alone, the table header, each row's prefix for a (name, group), and
// every test of the battery.
var figures = []struct {
	cmd, group, header string
	row                func(name, group string) string
	tests              [][2]string // (name, group)
}{
	{
		cmd: "fig5", group: "syscall",
		header: "Figure 5: lmbench latencies normalized to vanilla Android",
		row:    func(name, group string) string { return fmt.Sprintf("\n%-22s %-7s |", name, group) },
		tests:  testNames(lmbench.AllTests(), func(t lmbench.Test) [2]string { return [2]string{t.Name, t.Group} }),
	},
	{
		cmd: "fig6", group: "storage",
		header: "Figure 6: PassMark throughput normalized to vanilla Android",
		row:    func(name, group string) string { return fmt.Sprintf("\n%-22s %-8s |", name, group) },
		tests:  testNames(passmark.AllTests(), func(t passmark.Test) [2]string { return [2]string{t.Name, t.Group} }),
	},
}

func testNames[T any](tests []T, f func(T) [2]string) [][2]string {
	out := make([][2]string, len(tests))
	for i, t := range tests {
		out[i] = f(t)
	}
	return out
}

// TestRunGroup runs one group of each figure: the output must carry the
// figure header and exactly that group's rows, each measured on every
// configuration.
func TestRunGroup(t *testing.T) {
	for _, fig := range figures {
		t.Run(fig.cmd, func(t *testing.T) {
			got := runOK(t, fig.cmd, "-group", fig.group, "-jobs", "1")
			if !strings.HasPrefix(got, fig.header) {
				t.Errorf("output does not start with %q:\n%s", fig.header, got)
			}
			for _, test := range fig.tests {
				name, group := test[0], test[1]
				i := strings.Index(got, fig.row(name, group))
				switch {
				case group != fig.group && i >= 0:
					t.Errorf("row %q of group %s printed", name, group)
				case group == fig.group && i < 0:
					t.Errorf("row %q missing:\n%s", name, got)
				case group == fig.group:
					if row, _, _ := strings.Cut(got[i+1:], "\n"); strings.Contains(row, "n/a") {
						t.Errorf("row has a failed cell: %s", row)
					}
				}
			}
		})
	}
}

func TestRunUnknownGroup(t *testing.T) {
	for _, fig := range figures {
		t.Run(fig.cmd, func(t *testing.T) {
			err := run([]string{fig.cmd, "-group", "nope"}, io.Discard)
			if err == nil || !strings.Contains(err.Error(), `unknown group "nope"`) {
				t.Fatalf("%s -group nope = %v, want an unknown-group error", fig.cmd, err)
			}
		})
	}
}

// TestFiguresMatchExperiments renders both figures and compares them
// byte for byte with the measured-output blocks EXPERIMENTS.md shows: a
// virtual-time change must re-render the documented figures.
func TestFiguresMatchExperiments(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figures {
		t.Run(fig.cmd, func(t *testing.T) {
			// The block is the first fenced one after the figure's
			// section heading, and starts with the table header.
			section := "\n## Figure " + strings.TrimPrefix(fig.cmd, "fig") + " "
			_, rest, ok := strings.Cut(string(doc), section)
			if !ok {
				t.Fatalf("EXPERIMENTS.md has no %q section", strings.TrimSpace(section))
			}
			_, rest, _ = strings.Cut(rest, "\n```\n")
			block, _, ok := strings.Cut(rest, "```\n")
			if !ok || !strings.HasPrefix(block, fig.header) {
				t.Fatalf("no fenced block starting with %q under %q", fig.header, strings.TrimSpace(section))
			}
			if got := runOK(t, fig.cmd, "-jobs", "1"); got != block {
				t.Errorf("cider %s -jobs 1 differs from EXPERIMENTS.md; re-render the block:\n%s", fig.cmd, got)
			}
		})
	}
}

// TestUnknownCommand: a first argument that is neither a flag nor a
// subcommand is a usage error (exit 2) naming the subcommands, and runs
// nothing.
func TestUnknownCommand(t *testing.T) {
	var out strings.Builder
	err := run([]string{"nope"}, &out)
	if code := exitCode(err); code != 2 || !strings.Contains(fmt.Sprint(err), "fig5, fig6") {
		t.Fatalf("cider nope: %v (exit %d), want a usage error listing the subcommands (exit 2)", err, code)
	}
	if out.Len() > 0 {
		t.Fatalf("cider nope printed:\n%s", out.String())
	}
	if code := exitCode(run([]string{"fig5", "-no-such-flag"}, io.Discard)); code != 2 {
		t.Fatalf("a bad flag exits %d, want 2", code)
	}
	if code := exitCode(errors.New("boom")); code != 1 {
		t.Fatalf("a run failure exits %d, want 1", code)
	}
}

// TestDemo boots the demo device with tracing on: three taps reach the
// iOS app and the ktrace session is dumped.
func TestDemo(t *testing.T) {
	out := runOK(t, "--trace")
	mustContain(t, out, "taps delivered to iOS app:  3\n", "CiderPress launches:        1 (exit status 0)\n", "\n== ktrace ==\n")
}

func TestCrashes(t *testing.T) {
	out := runOK(t, "crashes")
	mustContain(t, out, "== 2 crash report(s) in /var/log/crashes ==", "exc.raised")
}

// TestStatsJSON decodes `cider stats --json`: three configurations whose
// null-syscall overheads sit near the EXPERIMENTS.md decomposition (9%
// and 41%, the paper's 8.5% and 40%), plus the governance counters.
func TestStatsJSON(t *testing.T) {
	var doc struct {
		Baseline string
		Configs  []struct {
			Config          string
			NullOverheadPct *float64 `json:"null_overhead_pct"`
		}
		Governance map[string]uint64
	}
	if err := json.Unmarshal([]byte(runOK(t, "stats", "--json")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Baseline != "android" || len(doc.Configs) != 3 {
		t.Fatalf("baseline %q with %d configs, want android and 3", doc.Baseline, len(doc.Configs))
	}
	want := map[string]float64{"android": 0, "cider-android": 9, "cider-ios": 41}
	for _, c := range doc.Configs {
		w, ok := want[c.Config]
		if !ok || c.NullOverheadPct == nil || math.Abs(*c.NullOverheadPct-w) > 2 {
			t.Errorf("%s null_overhead_pct = %v, want %v ± 2", c.Config, c.NullOverheadPct, w)
		}
	}
	if len(doc.Governance) == 0 {
		t.Error("no governance counters")
	}
}

// TestStatsText checks the text report ends with the decomposition.
func TestStatsText(t *testing.T) {
	mustContain(t, runOK(t, "stats", "-jobs", "1"),
		"==== resource governance (jetsam / pressure / rlimits) ====",
		"==== null-syscall decomposition (Fig. 5) ====\n  android ")
}

// TestDiffcheck runs the persona oracle and its explore driver on a few
// seeds: no divergence, and one explore row with verdict ok.
func TestDiffcheck(t *testing.T) {
	mustContain(t, runOK(t, "diffcheck", "-seeds", "8", "-artifact-dir", t.TempDir()),
		"diffcheck: seeds=8 divergences=0")
	mustContain(t, runOK(t, "diffcheck", "-explore", "1", "-seeds", "2", "-artifact-dir", t.TempDir()),
		"== explore: 1 suite(s) x 1 perturbation round(s) ==", "  ok\n")
}

// TestMachoRoundTrip writes the sample binary and inspects it.
func TestMachoRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sample")
	mustContain(t, runOK(t, "macho", "-sample", path), "wrote sample Mach-O executable")
	mustContain(t, runOK(t, "macho", path),
		"filetype MH_EXECUTE", "\nLC_MAIN ", "\nLC_LOAD_DYLIB      /usr/lib/libSystem.B.dylib\n")
}

// TestIPARoundTrip builds an encrypted package, decrypts it, and reads
// each state back with info.
func TestIPARoundTrip(t *testing.T) {
	dir := t.TempDir()
	enc, dec := filepath.Join(dir, "enc.ipa"), filepath.Join(dir, "dec.ipa")
	mustContain(t, runOK(t, "ipa", "build", "-name", "Calc", enc), "built encrypted")
	mustContain(t, runOK(t, "ipa", "info", enc), "name:    Calc\n", "state:   FairPlay-encrypted")
	mustContain(t, runOK(t, "ipa", "decrypt", enc, dec), "decrypted ")
	mustContain(t, runOK(t, "ipa", "info", dec), "state:   decrypted")
	if code := exitCode(run([]string{"ipa", "info"}, io.Discard)); code != 2 {
		t.Fatalf("ipa info without a file exits %d, want 2", code)
	}
}

func TestDucttape(t *testing.T) {
	out := runOK(t, "ducttape")
	mustContain(t, out, "== XNU subsystems (Mach IPC, pthread support) ==\nduct tape link report: ",
		"\n\n== I/O Kit (driver framework + C++ runtime) ==\nduct tape link report: ")
}
