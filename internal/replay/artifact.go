package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/fault"
)

// ArtifactVersion is the current artifact format version.
const ArtifactVersion = 1

// Artifact kinds.
const (
	// KindSoak replays one soak cell (a benchmark or mach-IPC cell under
	// a fault schedule).
	KindSoak = "soak"
	// KindDiffcheck replays one diffcheck seed (the same generated
	// program under both personas).
	KindDiffcheck = "diffcheck"
)

// CellRef identifies one soak cell within a schedule.
type CellRef struct {
	// Bench is the battery: "lmbench", "passmark", or "mach".
	Bench string `json:"bench"`
	// Test is the benchmark test name (empty for the mach cell).
	Test string `json:"test,omitempty"`
	// Config is the configuration name (empty for the mach cell).
	Config string `json:"config,omitempty"`
}

func (c CellRef) String() string {
	s := c.Bench
	if c.Config != "" {
		s += "/" + c.Config
	}
	if c.Test != "" {
		s += "/" + c.Test
	}
	return s
}

// Artifact is a self-contained, one-command repro of a single cell
// execution: everything the run depended on (fault plan, cell identity,
// explore provenance, scheduler choice log) plus the digest the run
// produced. `cider replay <artifact>` re-executes the cell in isolation
// and asserts digest equality.
type Artifact struct {
	// Version is the artifact format version (ArtifactVersion).
	Version int `json:"version"`
	// Kind is KindSoak or KindDiffcheck.
	Kind string `json:"kind"`

	// Schedule is the soak schedule name (KindSoak).
	Schedule string `json:"schedule,omitempty"`
	// Plan is the exact fault plan the run used (KindSoak; diffcheck
	// plans are derived from Seed).
	Plan *fault.Plan `json:"plan,omitempty"`
	// Services marks a soak cell booted with the service tree.
	Services bool `json:"services,omitempty"`
	// Pressure marks a soak cell booted with the memory-balloon workloads.
	Pressure bool `json:"pressure,omitempty"`
	// FDHog marks a soak cell booted with the descriptor-exhaustion apps.
	FDHog bool `json:"fd_hog,omitempty"`
	// Cell identifies the soak cell (KindSoak).
	Cell *CellRef `json:"cell,omitempty"`

	// Seed is the diffcheck program seed (KindDiffcheck); program and
	// plan are regenerated from it.
	Seed uint64 `json:"seed,omitempty"`

	// ExploreSeed records which explorer perturbation produced this run;
	// 0 for a canonical recording. Replay does not consult it — the
	// Decisions log is authoritative — but minimization and reports do.
	ExploreSeed uint64 `json:"explore_seed,omitempty"`

	// Decisions is the sparse non-canonical choice log of the run (for
	// KindDiffcheck, of the android-persona cell).
	Decisions []Choice `json:"decisions,omitempty"`
	// DecisionsIOS is the iOS-persona cell's choice log (KindDiffcheck).
	DecisionsIOS []Choice `json:"decisions_ios,omitempty"`
	// DecisionCount is how many decision points the run consulted
	// (canonical ones included) — a quick divergence telltale on replay.
	DecisionCount uint64 `json:"decision_count,omitempty"`

	// Digest is the recorded cell digest, as 16 hex digits; replay must
	// reproduce it bit-identically.
	Digest string `json:"digest,omitempty"`
	// Note carries the failure finding that triggered emission.
	Note string `json:"note,omitempty"`
}

// SetDigest stores d in the canonical 16-hex-digit form.
func (a *Artifact) SetDigest(d uint64) { a.Digest = fmt.Sprintf("%016x", d) }

// DigestValue parses the recorded digest.
func (a *Artifact) DigestValue() (uint64, error) {
	v, err := strconv.ParseUint(a.Digest, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("replay: bad digest %q: %v", a.Digest, err)
	}
	return v, nil
}

// Encode renders the artifact as indented JSON with a trailing newline.
// Encoding is canonical: Decode followed by Encode is byte-identical.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses an encoded artifact, rejecting unknown versions.
func Decode(data []byte) (*Artifact, error) {
	a := &Artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("replay: decode artifact: %v", err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("replay: artifact version %d (want %d)", a.Version, ArtifactVersion)
	}
	switch a.Kind {
	case KindSoak, KindDiffcheck:
	default:
		return nil, fmt.Errorf("replay: unknown artifact kind %q", a.Kind)
	}
	return a, nil
}

// Load reads and decodes an artifact file.
func Load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Save writes the artifact into dir (the OS temp dir when empty) under
// its deterministic, filesystem-safe name and returns the path.
func (a *Artifact) Save(dir string) (string, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	name := "cider-replay-diffcheck-seed-" + strconv.FormatUint(a.Seed, 16)
	if a.Kind == KindSoak {
		name = "cider-replay-" + sanitize(a.Schedule) + "-" + sanitize(a.Cell.String())
	}
	if a.ExploreSeed != 0 {
		name += fmt.Sprintf("-x%d", a.ExploreSeed)
	}
	b, err := a.Encode()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// Label names the recorded cell in reports.
func (a *Artifact) Label() string {
	s := fmt.Sprintf("seed %#x", a.Seed)
	if a.Kind == KindSoak {
		s = a.Schedule + " cell " + a.Cell.String()
	}
	if a.ExploreSeed != 0 {
		s += fmt.Sprintf(" (explore round %d, %d non-canonical choices)", a.ExploreSeed, a.perturbed())
	}
	return s
}

// logs returns the per-stream choice logs of an n-stream cell (n is 1
// or 2): Decisions, then DecisionsIOS.
func (a *Artifact) logs(n int) [][]Choice {
	return [][]Choice{a.Decisions, a.DecisionsIOS}[:n]
}

// setLogs stores per-stream choice logs in logs' order.
func (a *Artifact) setLogs(logs [][]Choice) {
	a.Decisions = logs[0]
	if len(logs) > 1 {
		a.DecisionsIOS = logs[1]
	}
}

// perturbed counts the non-canonical choices across both logs.
func (a *Artifact) perturbed() uint64 { return uint64(len(a.Decisions) + len(a.DecisionsIOS)) }

// sanitize maps a label to [a-z0-9-]: lmbench test names carry '+',
// '(', ')', '/' and spaces.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	dash := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			out = append(out, c)
			dash = false
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
			dash = false
		default:
			if !dash && len(out) > 0 {
				out = append(out, '-')
				dash = true
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '-' {
		out = out[:len(out)-1]
	}
	return string(out)
}
