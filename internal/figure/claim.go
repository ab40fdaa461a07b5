package figure

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Claim is one of the paper's §6 claims as data: what the paper says and
// the checks that hold a Report to it. A Figure carries its claims as
// rows; the markdown table they render is EXPERIMENTS.md's
// paper-vs-measured table for the figure.
type Claim struct {
	ID, Section, Text, Paper string
	Checks                   []Check
}

// Check is one assertion over a Report's cells, the pairs of Tests ×
// Configs. Each cell's value is its normalized value or, when OverTest or
// OverConfig is set, that value over the normalized value of the cell
// they name (an empty one keeps the cell's own test or configuration).
// Every cell must have a value inside In or, with NA, must have none:
// the test cannot complete there.
type Check struct {
	Tests, Configs       []string
	OverTest, OverConfig string
	In                   Range
	NA                   bool
}

// Range is an interval of values, each end closed unless marked open;
// it renders an infinite end open.
type Range struct {
	Lo, Hi         float64
	OpenLo, OpenHi bool
}

// Within is [lo, hi], AtLeast [x, ∞), Above (x, ∞), AtMost (-∞, x],
// Below (-∞, x) and Any every value.
func Within(lo, hi float64) Range { return Range{Lo: lo, Hi: hi} }
func AtLeast(x float64) Range     { return Range{Lo: x, Hi: math.Inf(1)} }
func Above(x float64) Range       { return Range{Lo: x, Hi: math.Inf(1), OpenLo: true} }
func AtMost(x float64) Range      { return Range{Lo: math.Inf(-1), Hi: x} }
func Below(x float64) Range       { return Range{Lo: math.Inf(-1), Hi: x, OpenHi: true} }

var Any = Range{Lo: math.Inf(-1), Hi: math.Inf(1)}

// Contains reports whether v lies in the range; NaN lies in none.
func (r Range) Contains(v float64) bool {
	return (v > r.Lo || v == r.Lo && !r.OpenLo) && (v < r.Hi || v == r.Hi && !r.OpenHi)
}

func (r Range) String() string {
	ends := []byte("[]")
	if r.OpenLo || math.IsInf(r.Lo, -1) {
		ends[0] = '('
	}
	if r.OpenHi || math.IsInf(r.Hi, 1) {
		ends[1] = ')'
	}
	return fmt.Sprintf("%c%g, %g%c", ends[0], r.Lo, r.Hi, ends[1])
}

// eval checks the claim against r. It returns what the checks read — per
// check, a value or a min–max range over its cells (n/a when none has a
// value), joined by " / " — and one line per cell that misses.
func (c Claim) eval(r *Report) (measured string, misses []string) {
	parts := make([]string, len(c.Checks))
	for i, k := range c.Checks {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, test := range k.Tests {
			for _, conf := range k.Configs {
				v, ok := r.Normalized(test, conf)
				cell := test + " on " + conf
				if k.OverTest != "" || k.OverConfig != "" {
					ot, oc := cmp.Or(k.OverTest, test), cmp.Or(k.OverConfig, conf)
					d, dok := r.Normalized(ot, oc)
					v, ok, cell = v/d, ok && dok, cell+" / "+ot+" on "+oc
				}
				got, want := "n/a", "n/a"
				if ok {
					got, lo, hi = fmt.Sprintf("%.3f", v), math.Min(lo, v), math.Max(hi, v)
				}
				if !k.NA {
					want = k.In.String()
				}
				if ok == k.NA || ok && !k.In.Contains(v) {
					misses = append(misses, fmt.Sprintf("%s: %s = %s, want %s", c.ID, cell, got, want))
				}
			}
		}
		switch l, h := fmt.Sprintf("%.2f", lo), fmt.Sprintf("%.2fx", hi); {
		case lo > hi:
			parts[i] = "n/a"
		case l+"x" == h:
			parts[i] = h
		default:
			parts[i] = l + "–" + h
		}
	}
	return strings.Join(parts, " / "), misses
}

// Claims returns the figure's claims whose every test — the test a ratio
// divides by and the test that normalizes each included — is a row of
// the report: all of them for a whole battery, a group's for a group run.
func (r *Report) Claims() []Claim {
	have := map[string]bool{}
	for _, row := range r.Rows {
		have[row.Name] = true
	}
	var out []Claim
claims:
	for _, c := range r.Figure.Claims {
		for _, k := range c.Checks {
			for _, t := range append([]string{k.OverTest}, k.Tests...) {
				if t != "" && (!have[t] || !have[r.base(t)]) {
					continue claims
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// Check evaluates the named claims (every claim of Claims when none is
// named) and returns one line per miss. A named claim the report does
// not hold is a miss too.
func (r *Report) Check(ids ...string) []string {
	var misses []string
	held := 0
	for _, c := range r.Claims() {
		if len(ids) == 0 || slices.Contains(ids, c.ID) {
			_, m := c.eval(r)
			misses, held = append(misses, m...), held+1
		}
	}
	if len(ids) > 0 && held != len(ids) {
		misses = append(misses, fmt.Sprintf("the report holds %d of claims %q", held, ids))
	}
	return misses
}

// RenderClaims produces the markdown paper-vs-measured table of Claims:
// the measured column is read from the report, and the status is ✅ when
// every check holds and ❌ otherwise. It is empty when the report holds
// no claim.
func (r *Report) RenderClaims() string {
	var b strings.Builder
	for _, c := range r.Claims() {
		if b.Len() == 0 {
			b.WriteString("| id | § | paper claim | paper value | measured | status |\n|---|---|---|---|---|---|\n")
		}
		measured, misses := c.eval(r)
		status := "✅"
		if len(misses) > 0 {
			status = "❌"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", c.ID, c.Section, c.Text, c.Paper, measured, status)
	}
	return b.String()
}
