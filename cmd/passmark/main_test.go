package main

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/passmark"
)

// TestRunGroup runs one group through the command: the output must carry
// the figure header and exactly that group's rows, each measured on every
// configuration.
func TestRunGroup(t *testing.T) {
	const group = "storage"
	var out strings.Builder
	if err := run([]string{"-group", group, "-jobs", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "Figure 6: PassMark throughput normalized to vanilla Android") {
		t.Errorf("output does not start with the Fig. 6 header:\n%s", got)
	}
	for _, test := range passmark.AllTests() {
		prefix := fmt.Sprintf("\n%-22s %-8s |", test.Name, test.Group)
		i := strings.Index(got, prefix)
		switch {
		case test.Group != group && i >= 0:
			t.Errorf("row %q of group %s printed", test.Name, test.Group)
		case test.Group == group && i < 0:
			t.Errorf("row %q missing:\n%s", test.Name, got)
		case test.Group == group:
			if row, _, _ := strings.Cut(got[i+1:], "\n"); strings.Contains(row, "n/a") {
				t.Errorf("row has a failed cell: %s", row)
			}
		}
	}
}

func TestRunUnknownGroup(t *testing.T) {
	err := run([]string{"-group", "nope"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown group "nope"`) {
		t.Fatalf("run(-group nope) = %v, want an unknown-group error", err)
	}
}
