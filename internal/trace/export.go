package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Summary is the JSON export shape.
type Summary struct {
	Label    string            `json:"label"`
	Sched    map[string]uint64 `json:"sched"`
	Counters map[string]uint64 `json:"counters"`
	Syscalls []*SyscallStats   `json:"syscalls"`
	Dropped  uint64            `json:"events_dropped"`
	Events   []Event           `json:"events,omitempty"`
}

// Summarize assembles the exportable view. withEvents controls whether
// the (potentially large) retained event ring is included.
func (s *Session) Summarize(withEvents bool) *Summary {
	sum := &Summary{
		Label:    s.Label,
		Sched:    make(map[string]uint64),
		Counters: make(map[string]uint64),
		Dropped:  s.Dropped(),
	}
	for ev := sim.SchedEvent(0); ev < sim.NumSchedEvents; ev++ {
		sum.Sched[ev.String()] = s.sched[ev]
	}
	for name, n := range s.counter {
		sum.Counters[name] = n
	}
	sum.Syscalls = s.sortedSyscalls()
	if withEvents {
		sum.Events = s.Events()
	}
	return sum
}

// sortedSyscalls orders accumulators by (persona, sysno) so exports are
// deterministic run to run.
func (s *Session) sortedSyscalls() []*SyscallStats {
	out := make([]*SyscallStats, 0, len(s.sys))
	for _, st := range s.sys {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Persona != b.Persona {
			return a.Persona < b.Persona
		}
		return a.Sysno < b.Sysno
	})
	return out
}

// JSON renders the session as indented JSON.
func (s *Session) JSON(withEvents bool) ([]byte, error) {
	return json.MarshalIndent(s.Summarize(withEvents), "", "  ")
}

// Text renders a human-readable summary: scheduler counts, counters,
// then one line per (persona, syscall) histogram.
func (s *Session) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace session %q\n", s.Label)
	b.WriteString("scheduler:")
	for ev := sim.SchedEvent(0); ev < sim.NumSchedEvents; ev++ {
		fmt.Fprintf(&b, " %s=%d", ev, s.sched[ev])
	}
	b.WriteString("\n")
	if len(s.counter) > 0 {
		b.WriteString("counters:\n")
		names := make([]string, 0, len(s.counter))
		for name := range s.counter {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %-32s %d\n", name, s.counter[name])
		}
	}
	sys := s.sortedSyscalls()
	if len(sys) > 0 {
		fmt.Fprintf(&b, "syscalls (%d distinct):\n", len(sys))
		fmt.Fprintf(&b, "  %-8s %-20s %8s %12s %12s %12s %8s\n",
			"persona", "syscall", "count", "mean", "min", "max", "errors")
		for _, st := range sys {
			name := st.Name
			if name == "" {
				name = fmt.Sprintf("sys_%d", st.Key.Sysno)
			}
			fmt.Fprintf(&b, "  %-8s %-20s %8d %12s %12s %12s %8d\n",
				st.Key.Persona, name, st.Hist.Count,
				fmtNS(st.Hist.Mean()), fmtNS(st.Hist.Min), fmtNS(st.Hist.Max), st.Errors)
		}
	}
	if s.seq > 0 {
		fmt.Fprintf(&b, "events: %d recorded, %d retained, %d dropped\n",
			s.seq, s.n, s.Dropped())
	}
	return b.String()
}

// EventsText renders the retained event ring, one line per event.
func (s *Session) EventsText() string {
	var b strings.Builder
	for _, e := range s.Events() {
		fmt.Fprintf(&b, "[%6d] %12s %-8s %s(%d)", e.Seq, fmtNS(e.At), e.Kind, e.Proc, e.ProcID)
		switch e.Kind {
		case EvSched:
			fmt.Fprintf(&b, " %s", e.Sched)
		case EvSyscallEnter, EvSyscallExit:
			name := e.Name
			if name == "" {
				name = fmt.Sprintf("sys_%d", e.Sysno)
			}
			fmt.Fprintf(&b, " %s/%s", e.Persona, name)
			if e.Kind == EvSyscallExit {
				fmt.Fprintf(&b, " errno=%d", e.Errno)
			}
		case EvSignal:
			fmt.Fprintf(&b, " sig=%d", e.Sysno)
		case EvExc:
			fmt.Fprintf(&b, " sig=%d exc=%d", e.Sysno, e.Errno)
		case EvRespawn:
			fmt.Fprintf(&b, " %s", e.Name)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " (%s)", e.Detail)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func fmtNS(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}
