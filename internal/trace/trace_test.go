package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/persona"
	"repro/internal/sim"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// bits.Len64 bucketing: 0 → bucket 0, 1 → 1, 2..3 → 2, 4..7 → 3, ...
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	for _, c := range cases {
		if h.Buckets[c.bucket] == 0 {
			t.Errorf("observe(%d): bucket %d empty", c.d, c.bucket)
		}
	}
	if h.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count, len(cases))
	}
	if h.Min != 0 || h.Max != 1024 {
		t.Fatalf("min/max = %v/%v, want 0/1024", h.Min, h.Max)
	}
	// Negative samples clamp to 0 rather than corrupting Sum.
	h.Observe(-5)
	if h.Min != 0 || h.Buckets[0] != 2 {
		t.Fatal("negative sample must clamp to bucket 0")
	}
	// Oversized samples land in the last bucket.
	h.Observe(time.Duration(1) << 62)
	if h.Buckets[HistBuckets-1] != 1 {
		t.Fatal("huge sample must land in the last bucket")
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Fatal("empty histogram mean must be 0")
	}
	h.Observe(100)
	h.Observe(300)
	if h.Mean() != 200 {
		t.Fatalf("mean = %v, want 200", h.Mean())
	}
}

func TestRingWraparound(t *testing.T) {
	s := NewSession("ring")
	s.SetRingCapacity(4)
	for i := 0; i < 10; i++ {
		s.SchedEvent(sim.SchedSpawn, "p", i, time.Duration(i), "")
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest-first: seq 7,8,9,10 (seq starts at 1).
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if s.SchedCount(sim.SchedSpawn) != 10 {
		t.Fatal("sched counter must survive ring eviction")
	}

	// Lockstep against a naive reference ring, across chunk boundaries and
	// a mid-stream resize: every capacity, from empty to three wraps.
	for _, capacity := range []int{0, 1, ringChunk - 1, ringChunk, ringChunk + 1, DefaultRingSize, 1 << 16} {
		for _, count := range []int{0, 1, capacity - 1, capacity, capacity + 1, 2*capacity + 7, 3 * capacity} {
			if count < 0 {
				continue
			}
			s, ref := NewSession("ring"), &refRing{}
			s.SetRingCapacity(capacity)
			ref.resize(capacity)
			for i := 0; i < count; i++ {
				s.SchedEvent(sim.SchedSpawn, "p", i, time.Duration(i), "")
				ref.record()
			}
			ref.check(t, s, "cap=%d count=%d", capacity, count)
			// Resize mid-stream: recorded events are discarded and counted.
			resized := capacity/2 + 3
			s.SetRingCapacity(resized)
			ref.resize(resized)
			ref.check(t, s, "cap=%d count=%d resized to %d", capacity, count, resized)
			for i := 0; i < resized+5; i++ {
				s.SchedEvent(sim.SchedWake, "q", i, time.Duration(i), "")
				ref.record()
			}
			ref.check(t, s, "cap=%d count=%d resized to %d then wrapped", capacity, count, resized)
		}
	}
}

// refRing is the obvious ring: a slice that drops its oldest element on
// overflow. It tracks sequence numbers only, which is what identifies an
// event.
type refRing struct {
	limit int
	seq   uint64
	kept  []uint64
}

func (r *refRing) resize(n int) { r.limit, r.kept = n, nil }

func (r *refRing) record() {
	r.seq++
	if r.limit == 0 {
		return
	}
	r.kept = append(r.kept, r.seq)
	if len(r.kept) > r.limit {
		r.kept = r.kept[1:]
	}
}

// check compares Events (in Seq order), Dropped, and the retained count
// Text prints, and checks that Walk visits exactly what Events returns,
// in place and without allocating.
func (r *refRing) check(t *testing.T, s *Session, format string, args ...any) {
	t.Helper()
	where := fmt.Sprintf(format, args...)
	evs := s.Events()
	if len(evs) != len(r.kept) {
		t.Fatalf("%s: retained %d events, want %d", where, len(evs), len(r.kept))
	}
	for i, e := range evs {
		if e.Seq != r.kept[i] {
			t.Fatalf("%s: event %d seq = %d, want %d", where, i, e.Seq, r.kept[i])
		}
	}
	walked := 0
	s.Walk(func(e *Event) {
		if walked >= len(evs) || *e != evs[walked] {
			t.Fatalf("%s: Walk event %d differs from Events", where, walked)
		}
		walked++
	})
	if walked != len(evs) {
		t.Fatalf("%s: Walk visited %d events, Events returned %d", where, walked, len(evs))
	}
	if a := testing.AllocsPerRun(1, func() { s.Walk(func(e *Event) { walked++ }) }); a != 0 {
		t.Fatalf("%s: Walk allocated %.0f times", where, a)
	}
	if got, want := s.Dropped(), r.seq-uint64(len(r.kept)); got != want {
		t.Fatalf("%s: dropped = %d, want %d", where, got, want)
	}
	if r.seq > 0 {
		line := fmt.Sprintf("events: %d recorded, %d retained, %d dropped",
			r.seq, len(r.kept), r.seq-uint64(len(r.kept)))
		if !strings.Contains(s.Text(), line) {
			t.Fatalf("%s: Text() lacks %q:\n%s", where, line, s.Text())
		}
	}
}

// TestResizeCountsDiscarded pins that a resize which throws recorded
// events away reports them as dropped at once, not only after the new
// ring refills.
func TestResizeCountsDiscarded(t *testing.T) {
	s := NewSession("resize")
	for i := 0; i < 10; i++ {
		s.SchedEvent(sim.SchedSpawn, "p", i, time.Duration(i), "")
	}
	s.SetRingCapacity(4)
	if got := s.Dropped(); got != 10 {
		t.Fatalf("dropped = %d after discarding 10 events, want 10", got)
	}
	if n := len(s.Events()); n != 0 {
		t.Fatalf("retained %d events after resize, want 0", n)
	}
}

// TestRingAllocatesOnDemand guards the ring's storage: a deep capacity
// is only a bound, so a session that records a few hundred events pays
// for the chunk it fills (plus the session and its maps), not for the
// capacity; and once a slot's chunk exists, recording allocates nothing.
func TestRingAllocatesOnDemand(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSession("alloc")
			s.SetRingCapacity(1 << 16)
			for j := 0; j < 200; j++ {
				s.SchedEvent(sim.SchedSpawn, "p", j, time.Duration(j), "")
			}
		}
	})
	// One chunk, rounded up to its allocator size class (28,672 B plus an
	// 8 B object header lands in the 32 KiB class), plus the session and
	// its maps. Two chunks, or the 7.3 MB capacity, fail.
	chunk := int64(ringChunk * unsafe.Sizeof(Event{}))
	limit := chunk*5/4 + 1024
	if got := res.AllocedBytesPerOp(); got > limit {
		t.Errorf("200 events under a 64Ki capacity allocate %d B, want <= %d (one %d B chunk, rounded, + session)",
			got, limit, chunk)
	}

	s := NewSession("alloc")
	s.SetRingCapacity(ringChunk)
	s.SchedEvent(sim.SchedSpawn, "p", 0, 0, "")
	// 1000 more events fill the chunk and wrap it several times.
	if n := testing.AllocsPerRun(1000, func() {
		s.SchedEvent(sim.SchedSpawn, "p", 1, 1, "")
	}); n != 0 {
		t.Errorf("SchedEvent allocates %.1f times per event once its chunk exists, want 0", n)
	}
}

func TestRingDisabledKeepsStats(t *testing.T) {
	s := NewSession("noring")
	s.SetRingCapacity(0)
	s.SyscallExit("p", 1, persona.Android, 64, "getppid", 0, 0, 500)
	if len(s.Events()) != 0 {
		t.Fatal("ring disabled but events retained")
	}
	st := s.SyscallStat(persona.Android, 64)
	if st == nil || st.Hist.Count != 1 || st.Hist.Sum != 500 {
		t.Fatalf("histogram lost with ring disabled: %+v", st)
	}
}

func TestSyscallStatsAndErrors(t *testing.T) {
	s := NewSession("sys")
	s.SyscallExit("p", 1, persona.IOS, 39, "getppid", 0, 100, 300)
	s.SyscallExit("p", 1, persona.IOS, 39, "getppid", 2, 300, 700)
	s.SyscallExit("p", 1, persona.Android, 64, "getppid", 0, 0, 150)
	st := s.SyscallStat(persona.IOS, 39)
	if st == nil {
		t.Fatal("no iOS getppid accumulator")
	}
	if st.Hist.Count != 2 || st.Hist.Sum != 600 || st.Errors != 1 {
		t.Fatalf("iOS getppid: count=%d sum=%v errors=%d", st.Hist.Count, st.Hist.Sum, st.Errors)
	}
	// Same syscall number under a different persona is a distinct key.
	if s.SyscallStat(persona.Android, 39) != nil {
		t.Fatal("persona must partition syscall stats")
	}
}

func TestSortedExportDeterministic(t *testing.T) {
	s := NewSession("sorted")
	s.SyscallExit("p", 1, persona.IOS, 4, "write", 0, 0, 1)
	s.SyscallExit("p", 1, persona.Android, 64, "getppid", 0, 0, 1)
	s.SyscallExit("p", 1, persona.Android, 3, "read", 0, 0, 1)
	s.SyscallExit("p", 1, persona.IOS, 3, "read", 0, 0, 1)
	sum := s.Summarize(false)
	wantOrder := []SyscallKey{
		{persona.Android, 3}, {persona.Android, 64},
		{persona.IOS, 3}, {persona.IOS, 4},
	}
	if len(sum.Syscalls) != len(wantOrder) {
		t.Fatalf("exported %d syscalls, want %d", len(sum.Syscalls), len(wantOrder))
	}
	for i, st := range sum.Syscalls {
		if st.Key != wantOrder[i] {
			t.Fatalf("export[%d] = %+v, want %+v", i, st.Key, wantOrder[i])
		}
	}
}

func TestCounters(t *testing.T) {
	s := NewSession("ctr")
	s.Count(CounterDiplomatCalls, 2)
	s.Count(CounterDiplomatCalls, 3)
	if s.Counter(CounterDiplomatCalls) != 5 {
		t.Fatalf("counter = %d, want 5", s.Counter(CounterDiplomatCalls))
	}
	if s.Counter("never.touched") != 0 {
		t.Fatal("unknown counter must read 0")
	}
}

func TestNilSessionDisabled(t *testing.T) {
	var s *Session
	if s.Enabled() {
		t.Fatal("nil session must report disabled")
	}
	if NewSession("x").Enabled() != true {
		t.Fatal("fresh session must report enabled")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := NewSession("json")
	s.SchedEvent(sim.SchedSpawn, "p", 1, 0, "")
	s.SyscallExit("p", 1, persona.Android, 64, "getppid", 0, 0, 500)
	s.Count(CounterDyldBinds, 7)
	out, err := s.JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if sum.Label != "json" || sum.Counters[CounterDyldBinds] != 7 || len(sum.Events) != 2 {
		t.Fatalf("round-tripped summary wrong: %+v", sum)
	}
}

func TestTextIncludesSections(t *testing.T) {
	s := NewSession("txt")
	s.SchedEvent(sim.SchedSpawn, "p", 1, 0, "")
	s.SyscallExit("p", 1, persona.IOS, 39, "getppid", 0, 0, 574)
	s.Count(CounterSignalDelivered, 1)
	out := s.Text()
	for _, want := range []string{`trace session "txt"`, "spawn=1", "signal.delivered", "getppid", "ios"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Text() missing %q:\n%s", want, out)
		}
	}
}

// TestEventShort pins the compact shape-only rendering differential
// tools compare: no timestamp, no sequence number, per-kind payload.
func TestEventShort(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{Seq: 9, At: 5 * time.Millisecond, Kind: EvSyscallExit,
				Proc: "pid1:/bin/app", ProcID: 1, Persona: persona.IOS, Sysno: 41, Name: "dup", Errno: 9},
			"sysexit pid1:/bin/app[1] dup errno=9",
		},
		{
			Event{Kind: EvSyscallEnter, Proc: "p", ProcID: 2, Sysno: 63},
			"sysenter p[2] 63",
		},
		{
			Event{Kind: EvSignal, Proc: "p", ProcID: 1, Sysno: 20, Detail: "handler"},
			"signal p[1] sig=20 (handler)",
		},
		{
			Event{Kind: EvFault, Proc: "p", ProcID: 1, Name: "android/read", Detail: "syscall"},
			"fault p[1] android/read (syscall)",
		},
		{
			Event{Kind: EvSched, Proc: "p", ProcID: 3, Sched: sim.SchedSpawn},
			"sched p[3] " + sim.SchedSpawn.String(),
		},
	}
	for _, c := range cases {
		if got := c.ev.Short(); got != c.want {
			t.Errorf("Short() = %q, want %q", got, c.want)
		}
	}
}
