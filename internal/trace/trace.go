// Package trace is the simulator's observability layer: a ktrace-style
// bounded ring buffer of events plus per-syscall virtual-latency
// histograms and named counters. It exists so the Fig. 5/6 overheads can
// be decomposed from a run — which persona paid how many cycles in which
// syscall — rather than asserted from the cost tables.
//
// The layer is always compiled in and zero-cost when disabled: producers
// (sim scheduler, kernel syscall dispatch, signal delivery, diplomat,
// dyld) hold a *Session pointer and skip all work on nil. A Session never
// charges virtual time; attaching one cannot change simulation results,
// and bench_test.go asserts exactly that.
package trace

import (
	"math/bits"
	"sort"
	"strconv"
	"time"

	"repro/internal/persona"
	"repro/internal/sim"
)

// Counter names used across the stack. Producers pass these to Count;
// exporters sort them lexically, so dotted prefixes group related
// counters in the output.
const (
	// CounterDiplomatCalls counts diplomatic function invocations
	// (the full 9-step persona arbitration in internal/diplomat).
	CounterDiplomatCalls = "diplomat.calls"
	// CounterDiplomatResolves counts domestic-symbol resolutions inside
	// diplomat calls (arbitration step 4).
	CounterDiplomatResolves = "diplomat.resolves"
	// CounterSignalPosted counts signals queued on a task.
	CounterSignalPosted = "signal.posted"
	// CounterSignalDelivered counts signals actually delivered to a
	// handler or default disposition.
	CounterSignalDelivered = "signal.delivered"
	// CounterSignalXNUDeliver counts deliveries that crossed the
	// Linux-to-XNU signal-number translation (iOS persona receivers).
	CounterSignalXNUDeliver = "signal.xnu_deliver_translated"
	// CounterSignalXNUSend counts send-side XNU-to-Linux signal-number
	// translations (XNU kill/sigaction entering the shim).
	CounterSignalXNUSend = "signal.xnu_send_translated"
	// CounterDyldBinds counts dyld symbol bindings performed at load.
	CounterDyldBinds = "dyld.binds"
	// CounterDyldImages counts Mach-O images initialized by dyld.
	CounterDyldImages = "dyld.images"
	// CounterDyldCacheAttach counts shared-cache attachments.
	CounterDyldCacheAttach = "dyld.cache_attach"
	// CounterDyldLoadErrors counts dylib load failures (missing or
	// unreadable libraries — the dyld face of fault injection).
	CounterDyldLoadErrors = "dyld.load_errors"
	// CounterFaultInjected counts fault-layer injections of any kind;
	// per-op counts ride under "fault.<op>" (e.g. "fault.syscall").
	CounterFaultInjected = "fault.injected"
	// CounterExcRaised counts Mach exception messages raised for fatal
	// signals on iOS-persona threads (EXC_BAD_ACCESS and friends).
	CounterExcRaised = "exc.raised"
	// CounterExcResumed counts exceptions whose catcher replied
	// EXC_HANDLED, resuming the faulting thread instead of killing it.
	CounterExcResumed = "exc.resumed"
	// CounterCrashReports counts crash reports written by crashreporterd
	// under /var/log/crashes.
	CounterCrashReports = "crash.reports"
	// CounterLaunchdCrashes counts abnormal child exits reaped by
	// launchd's supervision loop.
	CounterLaunchdCrashes = "launchd.crashes"
	// CounterLaunchdRespawns counts services respawned by launchd.
	CounterLaunchdRespawns = "launchd.respawns"
	// CounterLaunchdThrottled counts services launchd gave up on after
	// crashing too often inside the flap window.
	CounterLaunchdThrottled = "launchd.throttled"
	// CounterSyslogDropped counts lines evicted from the bounded syslog
	// ring.
	CounterSyslogDropped = "syslog.dropped"
	// CounterJetsamKills counts memorystatus victim kills; per-band
	// counts ride under "jetsam.kills.<band>" (e.g. "jetsam.kills.idle").
	CounterJetsamKills = "jetsam.kills"
	// CounterPressureNotify counts memory-pressure level notifications
	// delivered to registered pressure handlers.
	CounterPressureNotify = "pressure.notify"
	// CounterRlimitHits counts resource-limit enforcement events: an
	// RLIMIT_NOFILE rejection at fd allocation, or an RLIMIT_AS /
	// RLIMIT_DATA rejection at map time.
	CounterRlimitHits = "rlimit.hits"
	// CounterRlimitXlate counts XNU-to-Linux rlimit resource-number
	// translations (iOS-persona getrlimit/setrlimit entering the shim).
	CounterRlimitXlate = "rlimit.xnu_translated"
	// CounterLaunchdJetsam counts supervised children reaped by launchd
	// whose deaths were memorystatus kills, not crashes: jetsam is the
	// system shedding load, so it never counts against the flap window
	// the way a crash loop does.
	CounterLaunchdJetsam = "launchd.jetsam"
)

// EventKind classifies ring-buffer entries.
type EventKind int

const (
	// EvSched is a scheduler event forwarded from sim (spawn/block/…).
	EvSched EventKind = iota
	// EvSyscallEnter marks a thread entering syscall dispatch.
	EvSyscallEnter
	// EvSyscallExit marks syscall completion; Errno holds the result.
	EvSyscallExit
	// EvSignal marks a signal delivery.
	EvSignal
	// EvFault marks a fault-layer injection; Name holds the injection key,
	// Detail the op class, Errno the injected error.
	EvFault
	// EvExc marks a Mach exception raise; Sysno carries the originating
	// canonical signal, Errno the EXC_* code, Detail the delivery outcome.
	EvExc
	// EvRespawn marks a launchd supervision decision; Name holds the
	// service path, Detail the action ("respawn", "throttled", ...).
	EvRespawn
)

func (k EventKind) String() string {
	switch k {
	case EvSched:
		return "sched"
	case EvSyscallEnter:
		return "sysenter"
	case EvSyscallExit:
		return "sysexit"
	case EvSignal:
		return "signal"
	case EvFault:
		return "fault"
	case EvExc:
		return "exc"
	case EvRespawn:
		return "respawn"
	}
	return "event?"
}

// Event is one ring-buffer record. Fields beyond Seq/At/Kind/Proc are
// populated per kind: Sched for EvSched; Persona/Sysno/Name/Errno for
// syscall records; Sysno carries the signal number for EvSignal.
type Event struct {
	Seq     uint64         `json:"seq"`
	At      time.Duration  `json:"at_ns"`
	Kind    EventKind      `json:"kind"`
	Proc    string         `json:"proc"`
	ProcID  int            `json:"proc_id"`
	Sched   sim.SchedEvent `json:"sched,omitempty"`
	Persona persona.Kind   `json:"persona,omitempty"`
	Sysno   int            `json:"sysno,omitempty"`
	Name    string         `json:"name,omitempty"`
	Errno   int            `json:"errno,omitempty"`
	Detail  string         `json:"detail,omitempty"`
}

// Short renders the event as one compact ktrace-style line without the
// timestamp or sequence number — the shape-only view differential tools
// compare across configurations whose virtual clocks legitimately differ.
func (e Event) Short() string {
	var b []byte
	b = append(b, e.Kind.String()...)
	b = append(b, ' ')
	b = append(b, e.Proc...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(e.ProcID), 10)
	b = append(b, ']')
	switch e.Kind {
	case EvSched:
		b = append(b, ' ')
		b = append(b, e.Sched.String()...)
	case EvSyscallEnter, EvSyscallExit:
		b = append(b, ' ')
		if e.Name != "" {
			b = append(b, e.Name...)
		} else {
			b = strconv.AppendInt(b, int64(e.Sysno), 10)
		}
		if e.Kind == EvSyscallExit {
			b = append(b, " errno="...)
			b = strconv.AppendInt(b, int64(e.Errno), 10)
		}
	case EvSignal, EvExc:
		b = append(b, " sig="...)
		b = strconv.AppendInt(b, int64(e.Sysno), 10)
	case EvFault, EvRespawn:
		b = append(b, ' ')
		b = append(b, e.Name...)
	}
	if e.Detail != "" {
		b = append(b, " ("...)
		b = append(b, e.Detail...)
		b = append(b, ')')
	}
	return string(b)
}

// HistBuckets is the number of log2 latency buckets per histogram;
// bucket i counts latencies in [2^(i-1), 2^i) ns, bucket 0 counts 0–1ns,
// and the last bucket absorbs everything larger.
const HistBuckets = 40

// Histogram accumulates virtual latencies in log2 buckets.
type Histogram struct {
	Count   uint64              `json:"count"`
	Sum     time.Duration       `json:"sum_ns"`
	Min     time.Duration       `json:"min_ns"`
	Max     time.Duration       `json:"max_ns"`
	Buckets [HistBuckets]uint64 `json:"buckets"`
}

// Observe adds one latency sample.
//
//hot:noalloc
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	b := bits.Len64(uint64(d))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Buckets[b]++
}

// Mean returns the average latency, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// SyscallKey identifies one histogram: the paper's overheads differ by
// which persona's table served the trap, so (persona, syscall) is the
// unit of attribution.
type SyscallKey struct {
	Persona persona.Kind `json:"persona"`
	Sysno   int          `json:"sysno"`
}

// SyscallStats is the per-(persona, syscall) accumulator.
type SyscallStats struct {
	Key    SyscallKey `json:"key"`
	Name   string     `json:"name"`
	Hist   Histogram  `json:"hist"`
	Errors uint64     `json:"errors"`
}

// DefaultRingSize bounds the event ring unless overridden.
const DefaultRingSize = 4096

// ringChunk is the event ring's allocation unit. Storage grows one chunk
// at a time as events arrive, so a capacity is only a bound: a session
// that records 200 events under a 64Ki capacity holds one chunk. 256
// divides DefaultRingSize, so a full default ring is 16 whole chunks
// and growth never copies (unlike append-doubling, which would allocate
// about twice the capacity on the way to filling it).
const ringChunk = 256

// Session is one configuration's trace state. It implements sim.Sink and
// is fed by the kernel's dispatch/signal paths and by library-layer
// counters. All methods are single-threaded by construction: the sim
// runs exactly one Proc at a time.
type Session struct {
	// Label names the traced configuration (e.g. "cider-ios").
	Label string

	// chunks holds the retained events: slot i lives in
	// chunks[i/ringChunk][i%ringChunk]. limit is the ring capacity, n the
	// number of events retained, and next the slot the next event
	// overwrites once n == limit.
	chunks  [][]Event
	limit   int
	n       int
	next    int
	seq     uint64
	sched   [sim.NumSchedEvents]uint64
	sys     map[SyscallKey]*SyscallStats
	counter map[string]uint64
}

// NewSession creates an enabled session with the default ring size.
func NewSession(label string) *Session {
	return &Session{
		Label:   label,
		limit:   DefaultRingSize,
		sys:     make(map[SyscallKey]*SyscallStats),
		counter: make(map[string]uint64),
	}
}

// SetRingCapacity rebounds the (empty or non-empty) event ring; existing
// events are dropped and count toward Dropped. n <= 0 disables event
// recording but keeps histograms and counters.
func (s *Session) SetRingCapacity(n int) {
	s.chunks = nil
	s.limit = max(n, 0)
	s.n = 0
	s.next = 0
}

// Enabled reports whether the session collects anything. A nil Session
// is the disabled state producers test for.
func (s *Session) Enabled() bool { return s != nil }

//
//hot:noalloc
func (s *Session) record(e Event) {
	s.seq++
	e.Seq = s.seq
	if s.limit == 0 {
		return
	}
	*s.slot() = e
}

// slot claims the ring slot for the next event. It stays out of line so
// record remains small enough to inline: producers then build each Event
// in place instead of copying 112 bytes through a call, which made a
// wrapping ring's per-event cost about 1.5× in a microbenchmark.
//
//hot:noalloc
//go:noinline
func (s *Session) slot() *Event {
	i := s.n
	if s.n < s.limit {
		if i%ringChunk == 0 {
			//lint:allow hotalloc: one chunk per 256 retained events, reused on every wrap
			s.chunks = append(s.chunks, make([]Event, min(ringChunk, s.limit-s.n)))
		}
		s.n++
	} else {
		// Ring is full: overwrite oldest.
		i = s.next
		s.next++
		if s.next == s.limit {
			s.next = 0
		}
	}
	return &s.chunks[i/ringChunk][i%ringChunk]
}

// SchedEvent implements sim.Sink.
//
//hot:noalloc
func (s *Session) SchedEvent(ev sim.SchedEvent, proc string, id int, at time.Duration, detail string) {
	if ev >= 0 && ev < sim.NumSchedEvents {
		s.sched[ev]++
	}
	s.record(Event{At: at, Kind: EvSched, Proc: proc, ProcID: id, Sched: ev, Detail: detail})
}

// SyscallEnter records a thread entering syscall dispatch.
//
//hot:noalloc
func (s *Session) SyscallEnter(proc string, id int, p persona.Kind, num int, name string, at time.Duration) {
	s.record(Event{At: at, Kind: EvSyscallEnter, Proc: proc, ProcID: id, Persona: p, Sysno: num, Name: name})
}

// SyscallExit records syscall completion and feeds the (persona, syscall)
// latency histogram with end-start. errno is the raw errno value (0 = OK).
//
//hot:noalloc
func (s *Session) SyscallExit(proc string, id int, p persona.Kind, num int, name string, errno int, start, end time.Duration) {
	key := SyscallKey{Persona: p, Sysno: num}
	st := s.sys[key]
	if st == nil {
		//lint:allow hotalloc: first sight of a (persona, syscall) key — one accumulator per key per session
		st = &SyscallStats{Key: key, Name: name}
		s.sys[key] = st
	}
	st.Hist.Observe(end - start)
	if errno != 0 {
		st.Errors++
	}
	s.record(Event{At: end, Kind: EvSyscallExit, Proc: proc, ProcID: id, Persona: p, Sysno: num, Name: name, Errno: errno})
}

// Signal records a signal delivery event (Sysno carries the signal
// number as seen by the receiving persona).
func (s *Session) Signal(proc string, id int, p persona.Kind, sig int, detail string, at time.Duration) {
	s.record(Event{At: at, Kind: EvSignal, Proc: proc, ProcID: id, Persona: p, Sysno: sig, Detail: detail})
}

// Fault records a fault-layer injection: op is the injection-point class
// ("syscall", "park", "map", "vfs", "mach_send", "mach_recv"), key the
// injection key, errno the injected error (0 for pure latency spikes).
func (s *Session) Fault(proc string, id int, op, key string, errno int, at time.Duration) {
	s.counter[CounterFaultInjected]++
	s.counter["fault."+op]++
	s.record(Event{At: at, Kind: EvFault, Proc: proc, ProcID: id, Name: key, Errno: errno, Detail: op})
}

// Exc records a Mach exception raise for a fatal signal: sig is the
// canonical signal number, code the EXC_* class, detail the delivery
// outcome ("resumed", "fatal", "no-port", ...).
func (s *Session) Exc(proc string, id int, p persona.Kind, sig, code int, detail string, at time.Duration) {
	s.counter[CounterExcRaised]++
	s.record(Event{At: at, Kind: EvExc, Proc: proc, ProcID: id, Persona: p, Sysno: sig, Errno: code, Detail: detail})
}

// Respawn records a launchd supervision decision for a service. name is
// the service executable path, detail the action taken.
func (s *Session) Respawn(proc string, id int, name, detail string, at time.Duration) {
	s.record(Event{At: at, Kind: EvRespawn, Proc: proc, ProcID: id, Name: name, Detail: detail})
}

// Count adds n to a named counter.
//
//hot:noalloc
func (s *Session) Count(name string, n uint64) { s.counter[name] += n }

// Counter reads a named counter (0 if never counted).
func (s *Session) Counter(name string) uint64 { return s.counter[name] }

// Counters returns all named counters sorted by name — the deterministic
// export the soak harness digests.
func (s *Session) Counters() []NamedCounter {
	out := make([]NamedCounter, 0, len(s.counter))
	for name, v := range s.counter {
		out = append(out, NamedCounter{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedCounter is one Counters() entry.
type NamedCounter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// SchedCount reads one scheduler-event counter.
func (s *Session) SchedCount(ev sim.SchedEvent) uint64 {
	if ev < 0 || ev >= sim.NumSchedEvents {
		return 0
	}
	return s.sched[ev]
}

// Dropped reports how many recorded events the ring no longer retains:
// those evicted by wraparound or discarded by SetRingCapacity.
func (s *Session) Dropped() uint64 { return s.seq - uint64(s.n) }

// Events returns the retained events oldest-first: slots [next, n) then
// [0, next). Before the first wrap next is 0 and the second run is empty.
func (s *Session) Events() []Event {
	out := s.appendSlots(make([]Event, 0, s.n), s.next, s.n)
	return s.appendSlots(out, 0, s.next)
}

// appendSlots appends ring slots [from, to) to out, one bulk copy per
// chunk they span.
func (s *Session) appendSlots(out []Event, from, to int) []Event {
	for from < to {
		c := s.chunks[from/ringChunk][from%ringChunk:]
		c = c[:min(len(c), to-from)]
		out = append(out, c...)
		from += len(c)
	}
	return out
}

// SyscallStat returns the accumulator for one (persona, syscall), or nil.
func (s *Session) SyscallStat(p persona.Kind, num int) *SyscallStats {
	return s.sys[SyscallKey{Persona: p, Sysno: num}]
}
