// Package diplomat implements Cider's diplomatic functions (Section 4.3):
// stubs that let foreign (iOS) code call into domestic (Android) libraries
// by temporarily switching the calling thread's persona — kernel ABI and
// TLS area — around the call.
//
// The package provides both halves of the mechanism:
//
//   - The arbitration engine (Wrap): the nine-step process — resolve and
//     cache the domestic entry point on first invocation, save arguments,
//     set_persona to the domestic persona, invoke, save the result,
//     set_persona back, convert domestic TLS values (errno) into the
//     foreign TLS area, and return.
//
//   - The generator (Generate): the paper's automation script, which
//     "analyzed exported symbols in the iOS OpenGL ES Mach-O library,
//     searched through a directory of Android ELF shared objects for a
//     matching export, and automatically generated diplomats for each
//     matching function."
package diplomat

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/elfx"
	"repro/internal/kernel"
	"repro/internal/macho"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/trace"
)

// Engine performs persona arbitration for diplomatic calls on one kernel.
type Engine struct {
	k *kernel.Kernel
	// saveCost covers argument/result staging on the stack (steps 2/4/6/9).
	saveCost time.Duration
	// resolveCost is the first-invocation dlopen/dlsym work (step 1).
	resolveCost time.Duration
	// errnoCost is the TLS conversion (step 8).
	errnoCost time.Duration
	// calls counts diplomatic invocations (benchmarks).
	calls uint64
}

// NewEngine builds an arbitration engine for a kernel.
func NewEngine(k *kernel.Kernel) *Engine {
	cpu := k.Device().CPU
	return &Engine{
		k:           k,
		saveCost:    cpu.Cycles(90),
		resolveCost: cpu.Cycles(390000), // ~300 µs: load + locate entry point
		errnoCost:   cpu.Cycles(65),
	}
}

// Calls reports how many diplomatic calls have completed.
func (e *Engine) Calls() uint64 { return e.calls }

// Wrap builds a diplomat: a foreign-callable stub around the domestic
// function registered under domesticKey. The returned function implements
// the arbitration process of Section 4.3.
func (e *Engine) Wrap(domesticKey string) prog.Func {
	// Step 1 state: "storing a pointer to the function in a
	// locally-scoped static variable for efficient reuse".
	var cached prog.Func
	return func(c *prog.Call) uint64 {
		t, ok := c.Ctx.(*kernel.Thread)
		if !ok {
			return ^uint64(0)
		}
		if cached == nil {
			t.Charge(e.resolveCost)
			fn, found := e.k.Registry().Lookup(domesticKey)
			if !found {
				return ^uint64(0)
			}
			cached = fn
			if tr := e.k.Tracer(); tr != nil {
				tr.Count(trace.CounterDiplomatResolves, 1)
			}
		}
		// Step 2: save the arguments on the stack.
		t.Charge(e.saveCost)
		// Step 3: set_persona to the domestic persona, via the foreign
		// table's trap ("available from all personas").
		from := t.Persona.Current()
		setPersonaNum := abi.SetPersonaTrap
		if from == persona.Android {
			setPersonaNum = kernel.SysSetPersona
		}
		t.Syscall(setPersonaNum, &kernel.SyscallArgs{I: [6]uint64{uint64(persona.Android)}})
		// Step 4: restore the arguments.
		t.Charge(e.saveCost)
		// Step 5: direct invocation through the cached symbol, in the
		// thread's next call frame.
		ret := t.CallFunc(cached, c.Args)
		// Step 6: save the return value.
		t.Charge(e.saveCost)
		// Step 7: switch back, trapping through the *domestic* table now.
		t.Syscall(kernel.SysSetPersona, &kernel.SyscallArgs{I: [6]uint64{uint64(from)}})
		// Step 8: convert domestic TLS values into the foreign TLS area.
		t.Charge(e.errnoCost)
		domErrno := t.Persona.TLS(persona.Android).Errno
		if domErrno != 0 {
			t.Persona.TLS(persona.IOS).Errno = kernel.ErrnoToXNU(kernel.Errno(domErrno))
		}
		// Step 9: restore the result and return.
		t.Charge(e.saveCost)
		e.calls++
		if tr := e.k.Tracer(); tr != nil {
			tr.Count(trace.CounterDiplomatCalls, 1)
		}
		return ret
	}
}

// Batch performs one arbitration round trip around fn: switch to the
// domestic persona, run fn (which may invoke many domestic functions
// directly), switch back, convert TLS state. This is the paper's proposed
// future-work optimization — "aggregating OpenGL ES calls into a single
// diplomat" — benchmarked by BenchmarkAblationDiplomatAggregation.
func (e *Engine) Batch(t *kernel.Thread, fn func()) {
	from := t.Persona.Current()
	setPersonaNum := abi.SetPersonaTrap
	if from == persona.Android {
		setPersonaNum = kernel.SysSetPersona
	}
	t.Charge(e.saveCost)
	t.Syscall(setPersonaNum, &kernel.SyscallArgs{I: [6]uint64{uint64(persona.Android)}})
	fn()
	t.Syscall(kernel.SysSetPersona, &kernel.SyscallArgs{I: [6]uint64{uint64(from)}})
	t.Charge(e.errnoCost + e.saveCost)
	e.calls++
	if tr := e.k.Tracer(); tr != nil {
		tr.Count(trace.CounterDiplomatCalls, 1)
	}
}

// Spec describes one generated diplomat.
type Spec struct {
	// ForeignSymbol is the Mach-O export (e.g. "_glDrawArrays").
	ForeignSymbol string
	// DomesticLib is the ELF shared object's soname (e.g. "libGLESv2.so").
	DomesticLib string
	// DomesticSymbol is the ELF export (e.g. "glDrawArrays").
	DomesticSymbol string
}

// Generate is the automation script of Section 5.3: for every exported
// symbol of the foreign Mach-O library, search the given Android shared
// objects for a matching export (Mach-O's leading underscore stripped) and
// emit a diplomat spec. Unmatched exports are returned separately — those
// need hand-written diplomats (the EAGL extensions, in the paper).
func Generate(foreign *macho.File, domestic []*elfx.File) (specs []Spec, unmatched []string) {
	for _, sym := range foreign.ExportedSymbols() {
		want := strings.TrimPrefix(sym.Name, "_")
		found := false
		for _, so := range domestic {
			if dsym, ok := so.Lookup(want); ok {
				if !dsym.Defined {
					continue
				}
				specs = append(specs, Spec{
					ForeignSymbol:  sym.Name,
					DomesticLib:    so.SoName,
					DomesticSymbol: want,
				})
				found = true
				break
			}
		}
		if !found {
			unmatched = append(unmatched, sym.Name)
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ForeignSymbol < specs[j].ForeignSymbol })
	sort.Strings(unmatched)
	return specs, unmatched
}

// Install registers diplomats for specs under the foreign library's
// install name, so dyld binds iOS apps to them: the replaced Cider version
// of the foreign library (API interposition, Section 5.3). The registry
// keys of one (install name, spec list) are built once per process, since
// every Cider boot installs the same generated list; specs must not change
// once installed.
func (e *Engine) Install(reg *prog.Registry, foreignInstall string, specs []Spec) error {
	for i, k := range specKeys(foreignInstall, specs) {
		if err := reg.Register(k.foreign, e.Wrap(k.domestic)); err != nil {
			return fmt.Errorf("diplomat: %s: %w", specs[i].ForeignSymbol, err)
		}
	}
	return nil
}

// specKeyLists holds the registry keys of every spec list Install saw,
// by install name and the list's backing array and length.
var specKeyLists struct {
	sync.Mutex
	m map[specList][]specKey
}

type specList struct {
	install string
	p       *Spec
	n       int
}

// specKey is one spec's pair of registry keys.
type specKey struct{ foreign, domestic string }

// specKeys returns the registry keys of specs installed under
// foreignInstall, building them on the list's first install.
func specKeys(foreignInstall string, specs []Spec) []specKey {
	if len(specs) == 0 {
		return nil
	}
	id := specList{install: foreignInstall, p: &specs[0], n: len(specs)}
	specKeyLists.Lock()
	defer specKeyLists.Unlock()
	keys, ok := specKeyLists.m[id]
	if !ok {
		keys = make([]specKey, len(specs))
		for i, sp := range specs {
			keys[i] = specKey{
				foreign:  prog.SymbolKey(foreignInstall, sp.ForeignSymbol),
				domestic: prog.SymbolKey("/system/lib/"+sp.DomesticLib, sp.DomesticSymbol),
			}
		}
		if specKeyLists.m == nil {
			specKeyLists.m = make(map[specList][]specKey)
		}
		specKeyLists.m[id] = keys
	}
	return keys
}
