package diffcheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/trace"
)

// normalizeEvent maps one raw trace event to a persona-neutral line, or
// drops it. The normalization rules (documented in DESIGN.md) remove
// exactly the differences the two personas are *supposed* to have:
//
//   - scheduler events are dropped: park/wake timing rides on syscall
//     costs, which legitimately differ per persona;
//   - set_persona syscalls are dropped: the Android cell brackets Mach
//     traps with the diplomat persona hop, the iOS cell doesn't need to;
//   - the XNU table's "sigaction" aliases to Linux's "rt_sigaction" —
//     same kernel operation, different historical name;
//   - signal-delivery events canonicalize the delivered number when the
//     receiver is an iOS-persona thread (the handler saw XNU numbering);
//   - fault-injection keys drop their "<persona>/" prefix;
//   - timestamps and sequence numbers are excluded (Event.Short): virtual
//     time differs by design — Cider charges iOS syscalls more.
//
// Everything else must match event-for-event, per process.
func normalizeEvent(ev trace.Event) (line, procKey string, keep bool) {
	switch ev.Kind {
	case trace.EvSched:
		return "", "", false
	case trace.EvSyscallEnter, trace.EvSyscallExit:
		if ev.Name == "set_persona" {
			return "", "", false
		}
		if ev.Name == "sigaction" {
			ev.Name = "rt_sigaction"
		}
	case trace.EvSignal:
		if ev.Persona == persona.IOS {
			ev.Sysno = kernel.SignalFromXNU(ev.Sysno)
		}
	case trace.EvFault:
		if i := strings.IndexByte(ev.Name, '/'); i >= 0 {
			ev.Name = ev.Name[i+1:]
		}
	}
	return ev.Short(), fmt.Sprintf("%s#%d", ev.Proc, ev.ProcID), true
}

// Divergence is one observed behavioral difference between the two
// persona cells for a seed.
type Divergence struct {
	// Seed is the generating seed.
	Seed uint64
	// Class is the comparison layer that tripped: "cell" (boot/run/trace
	// health), "leak", "result" (executor log), "events" (normalized
	// trace), or "counter".
	Class string
	// Sig is the stable signature allowlist entries match against.
	Sig string
	// Detail is the human-readable evidence.
	Detail string
	// Program is the generating program's text.
	Program string
	// Minimized is the reduced program's text when minimization ran.
	Minimized string
	// Artifact is the replay artifact path for this seed's recorded
	// schedule, when recording was on.
	Artifact string
}

func (d Divergence) String() string {
	s := fmt.Sprintf("seed=%#x class=%s sig=%q\n  %s", d.Seed, d.Class, d.Sig, d.Detail)
	if d.Minimized != "" {
		s += "\n  minimized:\n" + indent(d.Minimized, "    ")
	}
	if d.Artifact != "" {
		s += "\n  reproduce with: cider replay " + d.Artifact
	}
	return s
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return pad + strings.Join(lines, "\n"+pad)
}

// sigToken extracts the op-kind token from an executor log line
// ("03 dup old=..." -> "dup") for stable signatures.
func sigToken(line string) string {
	f := strings.Fields(line)
	if len(f) >= 2 {
		return f[1]
	}
	if len(f) == 1 {
		return f[0]
	}
	return "?"
}

// eventSig extracts "<kind>/<name>" from a normalized event line
// ("sysexit pid1:...[1] dup errno=0" -> "sysexit/dup").
func eventSig(line string) string {
	f := strings.Fields(line)
	switch {
	case len(f) >= 3:
		return f[0] + "/" + f[2]
	case len(f) >= 1:
		return f[0]
	}
	return "?"
}

// Compare diffs two persona cells' results for one seed. The returned
// divergences are pre-allowlist: callers filter them with Filter.
func Compare(seed uint64, android, ios *CellResult) []Divergence {
	var out []Divergence
	add := func(class, sig, format string, args ...any) {
		out = append(out, Divergence{
			Seed: seed, Class: class, Sig: sig, Detail: fmt.Sprintf(format, args...),
		})
	}
	if android.Err != "" || ios.Err != "" {
		if android.Err != ios.Err {
			add("cell", "cell:err", "android=%q ios=%q", android.Err, ios.Err)
		}
		return out // cells that failed to run have nothing else to compare
	}
	if android.Dropped > 0 || ios.Dropped > 0 {
		// Eviction would make the event comparison lie by omission; under
		// the 64Ki capacity bound this means the generator grew past its
		// design size.
		add("cell", "cell:dropped", "android=%d ios=%d dropped trace events",
			android.Dropped, ios.Dropped)
		return out
	}
	if android.LeakErr != ios.LeakErr {
		add("leak", "leak:mismatch", "android=%q ios=%q", android.LeakErr, ios.LeakErr)
	}

	// Executor result log: first differing line.
	for i := 0; i < len(android.Log) || i < len(ios.Log); i++ {
		al, il := "<missing>", "<missing>"
		if i < len(android.Log) {
			al = android.Log[i]
		}
		if i < len(ios.Log) {
			il = ios.Log[i]
		}
		if al != il {
			add("result", "result:"+sigToken(al), "op %d:\n    android: %s\n    ios:     %s", i, al, il)
			break
		}
	}

	// Normalized event streams, compared per process: cross-process
	// interleaving at unequal virtual cost is expected, intra-process
	// order is not allowed to differ.
	procs := map[string]bool{}
	for _, p := range android.Procs {
		procs[p] = true
	}
	for _, p := range ios.Procs {
		procs[p] = true
	}
	sorted := make([]string, 0, len(procs))
	for p := range procs {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	for _, p := range sorted {
		as, is := android.Events[p], ios.Events[p]
		for i := 0; i < len(as) || i < len(is); i++ {
			al, il := "<missing>", "<missing>"
			if i < len(as) {
				al = as[i]
			}
			if i < len(is) {
				il = is[i]
			}
			if al != il {
				add("events", "events:"+eventSig(al), "proc %s event %d:\n    android: %s\n    ios:     %s",
					p, i, al, il)
				break
			}
		}
	}

	// Named counters: union of names.
	names := map[string]bool{}
	for n := range android.Counters {
		names[n] = true
	}
	for n := range ios.Counters {
		names[n] = true
	}
	cn := make([]string, 0, len(names))
	for n := range names {
		cn = append(cn, n)
	}
	sort.Strings(cn)
	for _, n := range cn {
		if android.Counters[n] != ios.Counters[n] {
			add("counter", "counter:"+n, "android=%d ios=%d", android.Counters[n], ios.Counters[n])
		}
	}
	return out
}

// CompareProgram runs one explicit program under both personas and diffs.
func CompareProgram(seed uint64, p *Program, plan fault.Plan) []Divergence {
	android := RunCellDecided(p, false, plan, nil)
	ios := RunCellDecided(p, true, plan, nil)
	return Compare(seed, android, ios)
}
