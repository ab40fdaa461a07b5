package soak

import (
	"testing"
	"time"

	"repro/internal/persona"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sessionKnobs sets every Event field and counter digestSession folds.
type sessionKnobs struct {
	seqGap  bool // record and drop one event first, shifting Seq
	exit    bool // the second event's Kind: sysexit instead of sysenter
	at      time.Duration
	proc    string
	id      int
	sched   sim.SchedEvent
	persona persona.Kind
	sysno   int
	name    string
	errno   int
	detail  string
	counter string
	value   uint64
}

// sum folds a session built from k.
func (k sessionKnobs) sum() uint64 {
	s := trace.NewSession("digest")
	if k.seqGap {
		s.SchedEvent(sim.SchedSpawn, "gap", 0, 0, "")
		s.SetRingCapacity(trace.DefaultRingSize)
	}
	s.SchedEvent(k.sched, k.proc, k.id, k.at, k.detail)
	if k.exit {
		s.SyscallExit(k.proc, k.id, k.persona, k.sysno, k.name, 0, k.at, k.at)
	} else {
		s.SyscallEnter(k.proc, k.id, k.persona, k.sysno, k.name, k.at)
	}
	s.SyscallExit(k.proc, k.id, k.persona, k.sysno, k.name, k.errno, k.at, k.at)
	s.Count(k.counter, k.value)
	d := replay.NewDigest()
	digestSession(d, s)
	return d.Sum()
}

// TestDigestSessionFieldSensitivity is a gate on the soak fingerprint:
// changing any one field of a retained event, or a counter's name or
// value, must change the cell digest. A field the fold skipped would let
// a behaviour change in that field pass every determinism and replay
// check unseen.
func TestDigestSessionFieldSensitivity(t *testing.T) {
	base := sessionKnobs{
		at: 1500 * time.Microsecond, proc: "launchd", id: 3, sched: sim.SchedBlock,
		persona: persona.IOS, sysno: 4, name: "write", errno: -9, detail: "pipe",
		counter: trace.CounterLaunchdRespawns, value: 2,
	}
	want := base.sum()
	for name, perturb := range map[string]func(*sessionKnobs){
		"Seq":           func(k *sessionKnobs) { k.seqGap = true },
		"At":            func(k *sessionKnobs) { k.at++ },
		"Kind":          func(k *sessionKnobs) { k.exit = true },
		"Proc":          func(k *sessionKnobs) { k.proc = "launche" },
		"ProcID":        func(k *sessionKnobs) { k.id = 4 },
		"Sched":         func(k *sessionKnobs) { k.sched = sim.SchedWake },
		"Persona":       func(k *sessionKnobs) { k.persona = persona.Android },
		"Sysno":         func(k *sessionKnobs) { k.sysno = 5 },
		"Name":          func(k *sessionKnobs) { k.name = "read" },
		"Errno":         func(k *sessionKnobs) { k.errno = -11 },
		"Detail":        func(k *sessionKnobs) { k.detail = "pipf" },
		"counter name":  func(k *sessionKnobs) { k.counter = trace.CounterLaunchdCrashes },
		"counter value": func(k *sessionKnobs) { k.value = 3 },
	} {
		k := base
		perturb(&k)
		if k.sum() == want {
			t.Errorf("changing %s left the session digest at %016x", name, want)
		}
	}
	if base.sum() != want {
		t.Fatal("the session digest is not a function of the session")
	}
}
