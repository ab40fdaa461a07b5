package main

import (
	"io"
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

// captureStdout runs f with os.Stdout redirected and returns what it
// printed alongside its error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	ferr := f()
	w.Close()
	os.Stdout = stdout
	return <-printed, ferr
}

// TestSoakVerify drives the soak command's verify path over the clean
// schedule: it must pass and report the jobs=N digest comparison.
func TestSoakVerify(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return runSoak(0, true, false, "clean", true, 0, t.TempDir())
	})
	if err != nil {
		t.Fatalf("soak --verify over clean: %v\n%s", err, out)
	}
	if !strings.Contains(out, "deterministic@jobs=") {
		t.Fatalf("soak --verify printed no determinism verdict:\n%s", out)
	}
}

// TestSoakUnknownSchedule pins the schedule-name check.
func TestSoakUnknownSchedule(t *testing.T) {
	err := runSoak(0, true, false, "clean,no-such-schedule", false, 0, "")
	if err == nil || !strings.Contains(err.Error(), "unknown schedule") {
		t.Fatalf("soak over an unknown schedule: %v, want an unknown-schedule error", err)
	}
}
