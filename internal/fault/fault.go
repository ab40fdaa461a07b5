// Package fault implements deterministic fault injection for the simulator.
//
// A fault Plan is a seeded list of Rules keyed to injection points (syscall
// dispatch, park/sleep interruption, memory mapping, VFS operations, Mach
// message send/receive). All decisions are pure functions of (seed, rule
// index, key, per-key hit counter) — there is no host randomness and no host
// clock, so the wallclock lint invariant holds and two runs of the same
// (seed, plan) against the same workload make bit-identical decisions.
//
// The package deliberately imports nothing but the standard library's time
// (for virtual-time durations): the kernel, xnu, core, and soak layers wire
// injectors in; fault itself knows nothing about them.
package fault

import (
	"fmt"
	"time"
)

// Op identifies an injection point class.
type Op int

const (
	// OpSyscall injects an errno at syscall dispatch. Keys are
	// "persona/name" (e.g. "ios/getpid", "android/read").
	OpSyscall Op = iota
	// OpPark interrupts a blocking Park or Sleep before it blocks. Keys are
	// the park reason ("waitq:pipe", "waitq:mach_snd", "select", ...);
	// timed waits and plain sleeps appear as "sleep".
	OpPark
	// OpMemMap fails an address-space mapping. Keys are the mapping name
	// ("/iOS/app/bin __TEXT", "[stack]", dylib paths, ...).
	OpMemMap
	// OpVFS fails or delays a filesystem operation. Keys are "op:path"
	// ("lookup:/iOS/usr/lib/libSystem.dylib", "create:/tmp/f", ...).
	OpVFS
	// OpMachSend interrupts or pressures a Mach message send. Key "send".
	OpMachSend
	// OpMachRecv interrupts a Mach message receive. Key "recv".
	OpMachRecv
	// OpCrash delivers a fatal signal to a task at syscall dispatch. Keys
	// are the task's executable path ("/usr/sbin/notifyd", "/bin/lmbench",
	// ...), so a rule targets a service regardless of pid and its hit
	// counters accumulate across respawned incarnations. Rule.Errno names
	// the canonical fatal signal (SEGV/BUS/ILL/FPE/ABRT); 0 means SIGSEGV.
	OpCrash
	// OpMemPressure injects a synthetic memory-pressure episode at a
	// footprint-charge point (a zero-fill materialization or new mapping).
	// Keys are the charging task's executable path, like OpCrash, so a
	// rule storms a specific workload and its hit counters survive
	// respawns. Rule.Errno picks the forced level: 2 drives the critical
	// ladder rung (one jetsam kill), anything else the warn rung (pressure
	// notifications). The episode runs the real memorystatus machinery —
	// only the watermark comparison is overridden — so kills and notifies
	// under injection are bit-identical to organic ones.
	OpMemPressure

	numOps
)

func (o Op) String() string {
	switch o {
	case OpSyscall:
		return "syscall"
	case OpPark:
		return "park"
	case OpMemMap:
		return "map"
	case OpVFS:
		return "vfs"
	case OpMachSend:
		return "mach_send"
	case OpMachRecv:
		return "mach_recv"
	case OpCrash:
		return "crash"
	case OpMemPressure:
		return "mem_pressure"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Rule is one fault source in a Plan. A rule is eligible for a Check when
// the op matches, the key matches Match, and virtual time is inside
// [After, Until). Among eligible hits it fires on the Nth hit (if Nth > 0),
// else pseudo-randomly one-in-Every (if Every > 1), else on every hit —
// subject to the Count cap.
// Rules carry JSON tags so a Plan embeds verbatim in replay artifacts
// (internal/replay); Delay/After/Until serialize as nanosecond integers.
type Rule struct {
	// Op selects the injection point class.
	Op Op `json:"op"`
	// Match filters keys: "" matches any key, a trailing '*' matches by
	// prefix, a leading '*' matches by suffix ("*/read" hits every
	// persona's read), anything else matches exactly.
	Match string `json:"match,omitempty"`
	// Errno is the injected error. Its interpretation is per-op: syscall
	// rules use kernel errno numbers, VFS rules ENOSPC vs anything-else=EIO,
	// Mach rules any non-zero means "interrupted". Zero with a Delay makes
	// a pure latency-spike rule.
	Errno int `json:"errno,omitempty"`
	// Delay is virtual time charged to the victim when the rule fires
	// (latency spike). Ignored for OpPark.
	Delay time.Duration `json:"delay,omitempty"`
	// QLimit, for OpMachSend, overrides the destination port's queue limit
	// for that send (queue-overflow pressure). 0 leaves the limit alone.
	QLimit int `json:"qlimit,omitempty"`
	// Every fires the rule pseudo-randomly on roughly one in Every eligible
	// hits (seeded, deterministic). 0 or 1 fires on every eligible hit.
	Every uint64 `json:"every,omitempty"`
	// Nth, when non-zero, fires exactly on the Nth eligible hit of each key
	// (1-based) and overrides Every. This is what targeted regression tests
	// use to fail "the i-th Map call".
	Nth uint64 `json:"nth,omitempty"`
	// Count caps the total number of times this rule fires. 0 is unlimited.
	Count uint64 `json:"count,omitempty"`
	// After makes the rule eligible only at virtual times >= After.
	After time.Duration `json:"after,omitempty"`
	// Until, when non-zero, makes the rule ineligible at times >= Until.
	Until time.Duration `json:"until,omitempty"`
}

//
//hot:noalloc
func (r Rule) match(key string) bool {
	if r.Match == "" {
		return true
	}
	if n := len(r.Match); r.Match[n-1] == '*' {
		pre := r.Match[:n-1]
		return len(key) >= len(pre) && key[:len(pre)] == pre
	}
	if r.Match[0] == '*' {
		suf := r.Match[1:]
		return len(key) >= len(suf) && key[len(key)-len(suf):] == suf
	}
	return r.Match == key
}

// Plan is a named, seeded fault schedule. A Plan is plain data with
// stable JSON form: replay artifacts embed the exact plan a failing run
// used, and decoding it back yields a bit-identical injector.
type Plan struct {
	// Name labels the schedule in soak reports and traces.
	Name string `json:"name"`
	// Seed drives every pseudo-random (Every-based) decision.
	Seed uint64 `json:"seed"`
	// Rules are consulted in order; the first rule that fires wins.
	Rules []Rule `json:"rules,omitempty"`
}

// Outcome is what a fired rule injects.
type Outcome struct {
	// Errno is the injected error number (see Rule.Errno).
	Errno int
	// Delay is virtual time the injection site must charge the victim.
	Delay time.Duration
	// QLimit is the Mach send queue-limit override (0 = none).
	QLimit int
	// Rule is the index of the plan rule that fired.
	Rule int
}

// Injector evaluates a Plan. It is not safe for concurrent use; host-parallel
// harnesses give each simulated system its own Injector (the per-key hit
// counters are part of the deterministic state).
type Injector struct {
	plan Plan
	// byOp indexes plan rule positions per op, in plan order, so Check
	// walks only the rules that could ever match the operation — the
	// common no-rules-for-this-op case is a nil-slice length test.
	byOp  [numOps][]int
	hits  []map[string]uint64 // per-rule eligible-hit counters, keyed by key
	fired []uint64            // per-rule fire counts
	total uint64

	// OnInject, when non-nil, observes every fired rule (trace wiring).
	// It must not re-enter the Injector.
	OnInject func(op Op, key string, out Outcome, now time.Duration)
}

// NewInjector builds an injector for plan with fresh counters.
func NewInjector(plan Plan) *Injector {
	in := &Injector{plan: plan}
	in.hits = make([]map[string]uint64, len(plan.Rules))
	in.fired = make([]uint64, len(plan.Rules))
	for i := range in.hits {
		in.hits[i] = make(map[string]uint64)
	}
	for i := range plan.Rules {
		op := plan.Rules[i].Op
		if op >= 0 && op < numOps {
			in.byOp[op] = append(in.byOp[op], i)
		}
	}
	return in
}

// Has reports whether the plan carries any rule for op. Injection sites use
// it to skip building decision keys (string concatenation) when no rule
// could ever consume them.
//
//hot:noalloc
func (in *Injector) Has(op Op) bool {
	return in != nil && op >= 0 && op < numOps && len(in.byOp[op]) > 0
}

// Fired returns the total number of injections so far.
func (in *Injector) Fired() uint64 {
	if in == nil {
		return 0
	}
	return in.total
}

// Check consults the plan for an operation at virtual time now. It returns
// the outcome of the first rule that fires, or ok=false when nothing does.
// Eligible hits bump per-(rule, key) counters whether or not the rule fires,
// so Nth/Every decisions depend only on the sequence of eligible operations.
//
//hot:noalloc
func (in *Injector) Check(op Op, key string, now time.Duration) (Outcome, bool) {
	if in == nil || op < 0 || op >= numOps {
		return Outcome{}, false
	}
	rules := in.byOp[op]
	if len(rules) == 0 {
		// Empty-plan fast path: the uninjected common case is one slice
		// length test, no key matching and no counter bumps.
		return Outcome{}, false
	}
	for _, i := range rules {
		r := &in.plan.Rules[i]
		if !r.match(key) {
			continue
		}
		if now < r.After || (r.Until > 0 && now >= r.Until) {
			continue
		}
		in.hits[i][key]++
		n := in.hits[i][key]
		if r.Count > 0 && in.fired[i] >= r.Count {
			continue
		}
		if r.Nth > 0 {
			if n != r.Nth {
				continue
			}
		} else if r.Every > 1 {
			if mix(in.plan.Seed, uint64(i), key, n)%r.Every != 0 {
				continue
			}
		}
		in.fired[i]++
		in.total++
		out := Outcome{Errno: r.Errno, Delay: r.Delay, QLimit: r.QLimit, Rule: i}
		if in.OnInject != nil {
			in.OnInject(op, key, out, now)
		}
		return out, true
	}
	return Outcome{}, false
}

// Syscall consults OpSyscall rules for a "persona/name" key.
//
//hot:noalloc
func (in *Injector) Syscall(now time.Duration, key string) (Outcome, bool) {
	return in.Check(OpSyscall, key, now)
}

// Interrupt consults OpPark rules for a park/sleep reason and reports
// whether the wait should be interrupted before blocking.
//
//hot:noalloc
func (in *Injector) Interrupt(now time.Duration, reason string) bool {
	_, ok := in.Check(OpPark, reason, now)
	return ok
}

// MemMap consults OpMemMap rules for a mapping name.
//
//hot:noalloc
func (in *Injector) MemMap(now time.Duration, name string) (Outcome, bool) {
	return in.Check(OpMemMap, name, now)
}

// VFS consults OpVFS rules for an "op:path" key.
func (in *Injector) VFS(now time.Duration, op, path string) (Outcome, bool) {
	return in.Check(OpVFS, op+":"+path, now)
}

// Crash consults OpCrash rules for a task executable path and reports
// whether the task should take a fatal signal at this dispatch.
//
//hot:noalloc
func (in *Injector) Crash(now time.Duration, path string) (Outcome, bool) {
	return in.Check(OpCrash, path, now)
}

// MemPressure consults OpMemPressure rules for a task executable path at
// a footprint-charge point; the outcome's Errno is the forced pressure
// level (2 = critical, else warn).
//
//hot:noalloc
func (in *Injector) MemPressure(now time.Duration, path string) (Outcome, bool) {
	return in.Check(OpMemPressure, path, now)
}

// mix hashes a decision context to a uniform-ish uint64 with splitmix64.
// Integer-only: no floats, no host entropy.
//
//hot:noalloc
func mix(seed, rule uint64, key string, n uint64) uint64 {
	x := seed
	x = splitmix64(x + 0x9e3779b97f4a7c15*(rule+1))
	x = splitmix64(x ^ fnv64(key))
	x = splitmix64(x + n)
	return x
}

//
//hot:noalloc
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

//
//hot:noalloc
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
