package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = "../../internal/soak/testdata/explored-daemon-crash-mach-x5.json"

// TestReplayFixture replays the checked-in explored artifact through the
// command's dispatch: it must reproduce its recorded digest.
func TestReplayFixture(t *testing.T) {
	if err := runReplay(fixture); err != nil {
		t.Fatal(err)
	}
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
	err = runReplay(path)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("replay of a flipped digest: %v, want a digest mismatch", err)
	}
}
