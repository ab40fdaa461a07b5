package figure

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

type fakeTest Row

func (t fakeTest) Row() Row { return Row(t) }

type fakeResult struct {
	v      float64
	failed bool
}

func (r fakeResult) Measured() (float64, bool) { return r.v, r.failed }

var fakeTests = []fakeTest{
	{Name: "a", Group: "g1"},
	{Name: "b", Group: "g1"},
	{Name: "b(ios)", Group: "g2", Base: "b"},
}

// fakeRunWith measures test i of configuration c as 10*(c+1)+i, and
// fails b(ios) on vanilla Android.
func fakeRunWith(conf Configuration, tests []fakeTest, hook func(*core.System)) ([]fakeResult, error) {
	if hook != nil {
		hook(nil)
	}
	c := 0
	for i, cf := range Configurations() {
		if cf.Name == conf.Name {
			c = i
		}
	}
	var rs []fakeResult
	for _, t := range tests {
		i := strings.Index("a b b(ios)", t.Name)
		rs = append(rs, fakeResult{v: float64(10*(c+1) + i), failed: t.Name == "b(ios)" && conf.Name == ConfigAndroid})
	}
	return rs, nil
}

// TestRunCells pins the cell unit each figure picks: one cell per
// (configuration, test) or one per configuration, indexed in canonical
// order, with every test's value landing in its (test, configuration)
// slot either way.
func TestRunCells(t *testing.T) {
	for _, perTest := range []bool{true, false} {
		f := &Figure{Name: "fake", PerTest: perTest}
		var cells []string
		ran := 0
		rep, err := Run(f, fakeTests, "", Options{Jobs: 1, OnSystem: func(c Cell, _ *core.System) {
			cells = append(cells, fmt.Sprintf("%d:%s/%s", c.Index, c.Config.Name, c.Test))
		}}, func(conf Configuration, tests []fakeTest, hook func(*core.System)) ([]fakeResult, error) {
			ran += len(tests)
			return fakeRunWith(conf, tests, hook)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 4
		if perTest {
			want = 12
		}
		if len(cells) != want || cells[0] != map[bool]string{true: "0:android/a", false: "0:android/"}[perTest] {
			t.Errorf("perTest=%v: cells %v", perTest, cells)
		}
		if ran != 12 {
			t.Errorf("perTest=%v: cells ran %d tests, want each of 3 once per configuration", perTest, ran)
		}
		if got := rep.Value["b"][ConfigIPad]; got != 42 {
			t.Errorf("perTest=%v: b on ipad = %v, want 42", perTest, got)
		}
	}
}

// TestNormalized pins the y-axis: a value over its baseline test's
// vanilla-Android value, and no value where either side failed.
func TestNormalized(t *testing.T) {
	rep, err := Run(&Figure{PerTest: true}, fakeTests, "", Options{}, fakeRunWith)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rep.Normalized("a", ConfigCiderIOS); !ok || v != 30.0/10 {
		t.Errorf("a on cider-ios = %v, %v; want 3", v, ok)
	}
	// b(ios) is normalized against b's vanilla value, not its own failed one.
	if v, ok := rep.Normalized("b(ios)", ConfigIPad); !ok || v != 44.0/12 {
		t.Errorf("b(ios) on ipad = %v, %v; want 44/12", v, ok)
	}
	if _, ok := rep.Normalized("b(ios)", ConfigAndroid); ok {
		t.Error("a failed test has a normalized value")
	}
	rep.Failed["b"][ConfigAndroid] = true
	if _, ok := rep.Normalized("b(ios)", ConfigIPad); ok {
		t.Error("a test whose baseline failed has a normalized value")
	}
}

// TestRender pins the data-driven layout: title, group column width,
// rule, group titles, the abs column's formatter and n/a cells.
func TestRender(t *testing.T) {
	f := &Figure{
		Title: "Figure X", GroupWidth: 3, Rule: 5, PerTest: true,
		Groups: map[string]string{"g1": "group one", "g2": "group two"},
		Format: func(v float64) string { return fmt.Sprintf("%gu", v) },
	}
	rep, err := Run(f, fakeTests, "", Options{}, fakeRunWith)
	if err != nil {
		t.Fatal(err)
	}
	want := "Figure X\n" +
		"test                   group |   android(abs)  cider-android      cider-ios           ipad\n" +
		"-----\n" +
		"· group one\n" +
		"a                      g1  |            10u          2.00x          3.00x          4.00x\n" +
		"b                      g1  |            12u          1.83x          2.67x          3.50x\n" +
		"· group two\n" +
		"b(ios)                 g2  |            n/a          2.00x          2.83x          3.67x\n"
	if got := rep.Render(); got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunGroupAndErrors pins the group filter and the layer each figure
// wraps its errors at.
func TestRunGroupAndErrors(t *testing.T) {
	rep, err := Run(&Figure{PerTest: true}, fakeTests, "g2", Options{}, fakeRunWith)
	if err != nil || len(rep.Rows) != 1 || rep.Rows[0].Name != "b(ios)" {
		t.Fatalf("group g2: rows %v, err %v", rep.Rows, err)
	}
	if _, err := Run(&Figure{}, fakeTests, "nope", Options{}, fakeRunWith); err == nil || err.Error() != `unknown group "nope"` {
		t.Errorf("unknown group: %v", err)
	}
	boom := errors.New("boom")
	failing := func(conf Configuration, tests []fakeTest, _ func(*core.System)) ([]fakeResult, error) {
		if conf.Name == ConfigCiderIOS || conf.Name == ConfigIPad {
			return nil, boom
		}
		return fakeRunWith(conf, tests, nil)
	}
	for wrapped, want := range map[bool]string{false: "fake: cider-ios: boom", true: "boom"} {
		_, err := Run(&Figure{Name: "fake", RunWrapped: wrapped}, fakeTests, "", Options{Jobs: 3}, failing)
		if err == nil || err.Error() != want || !errors.Is(err, boom) {
			t.Errorf("RunWrapped=%v: err %v, want %q (the lowest failing cell's)", wrapped, err, want)
		}
	}
}

// fakeClaims exercise every kind of check over the fake report, whose
// normalized values are a: 1, 2, 3, 4; b: 1, 22/12, 32/12, 42/12; and
// b(ios): n/a on vanilla Android, then 24/12, 34/12, 44/12.
var fakeClaims = []Claim{
	{ID: "closed", Section: "6.2", Text: "a on Cider", Paper: "2–3x",
		Checks: []Check{{Tests: []string{"a"}, Configs: []string{ConfigCiderAndroid, ConfigCiderIOS}, In: Within(2, 3)}}},
	{ID: "open-ends", Section: "6.2", Text: "a above 3 on cider-ios, below 4 on ipad", Paper: "-",
		Checks: []Check{{Tests: []string{"a"}, Configs: []string{ConfigCiderIOS}, In: Above(3)},
			{Tests: []string{"a"}, Configs: []string{ConfigIPad}, In: Below(4)}}},
	{ID: "ratios", Section: "6.3", Text: "a: ipad over cider-android; b(ios) over b", Paper: "2x / ≈1x",
		Checks: []Check{{Tests: []string{"a"}, Configs: []string{ConfigIPad}, OverConfig: ConfigCiderAndroid, In: Within(2, 2)},
			{Tests: []string{"b(ios)"}, Configs: []string{ConfigIPad}, OverTest: "b", In: AtMost(1.05)}}},
	{ID: "over-g2", Section: "6.3", Text: "b over b(ios) on cider-ios", Paper: "<1x",
		Checks: []Check{{Tests: []string{"b"}, Configs: []string{ConfigCiderIOS}, OverTest: "b(ios)", In: AtLeast(0.9)}}},
	{ID: "outcomes", Section: "6.2", Text: "b(ios) fails on android, runs on cider-ios", Paper: "fails",
		Checks: []Check{{Tests: []string{"b(ios)"}, Configs: []string{ConfigAndroid}, NA: true},
			{Tests: []string{"b(ios)"}, Configs: []string{ConfigCiderIOS}, In: Any}}},
	{ID: "misses", Section: "6.2", Text: "wrong outcomes", Paper: "-",
		Checks: []Check{{Tests: []string{"b(ios)"}, Configs: []string{ConfigAndroid}, In: Any},
			{Tests: []string{"b(ios)"}, Configs: []string{ConfigIPad}, NA: true}}},
}

// TestClaims pins the evaluator and the claim table: each kind of check
// and range end, the measured column (a value, a min–max range or n/a
// per check, joined by " / "), the computed status, the miss lines, and
// which claims a group run holds.
func TestClaims(t *testing.T) {
	rep, err := Run(&Figure{PerTest: true, Claims: fakeClaims}, fakeTests, "", Options{}, fakeRunWith)
	if err != nil {
		t.Fatal(err)
	}
	want := "| id | § | paper claim | paper value | measured | status |\n|---|---|---|---|---|---|\n" +
		"| `closed` | 6.2 | a on Cider | 2–3x | 2.00–3.00x | ✅ |\n" +
		"| `open-ends` | 6.2 | a above 3 on cider-ios, below 4 on ipad | - | 3.00x / 4.00x | ❌ |\n" +
		"| `ratios` | 6.3 | a: ipad over cider-android; b(ios) over b | 2x / ≈1x | 2.00x / 1.05x | ✅ |\n" +
		"| `over-g2` | 6.3 | b over b(ios) on cider-ios | <1x | 0.94x | ✅ |\n" +
		"| `outcomes` | 6.2 | b(ios) fails on android, runs on cider-ios | fails | n/a / 2.83x | ✅ |\n" +
		"| `misses` | 6.2 | wrong outcomes | - | n/a / 3.67x | ❌ |\n"
	if got := rep.RenderClaims(); got != want {
		t.Errorf("RenderClaims:\n%s\nwant:\n%s", got, want)
	}
	wantMisses := "open-ends: a on cider-ios = 3.000, want (3, +Inf)\n" +
		"open-ends: a on ipad = 4.000, want (-Inf, 4)\n" +
		"misses: b(ios) on android = n/a, want (-Inf, +Inf)\n" +
		"misses: b(ios) on ipad = 3.667, want n/a\n" +
		`the report holds 3 of claims ["closed" "open-ends" "misses" "nope"]`
	if got := strings.Join(rep.Check("closed", "open-ends", "misses", "nope"), "\n"); got != wantMisses {
		t.Errorf("Check:\n%s\nwant:\n%s", got, wantMisses)
	}
	if got := rep.Check(); len(got) != 4 {
		t.Errorf("Check() over every claim: %q, want the 4 misses above", got)
	}

	// A group run holds the claims over its rows, the rows its ratios
	// divide by, and their baselines.
	rep, err = Run(&Figure{PerTest: true, Claims: fakeClaims}, fakeTests, "g1", Options{}, fakeRunWith)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Claims(); len(got) != 2 || got[0].ID != "closed" || got[1].ID != "open-ends" {
		t.Errorf("group g1 holds claims %v, want closed and open-ends", got)
	}
	if rep.Rows = []Row{fakeTests[2].Row()}; len(rep.Claims()) != 0 || rep.RenderClaims() != "" {
		t.Errorf("b(ios) without its baseline b holds claims %v", rep.Claims())
	}
}
