package diplomat_test

import (
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/diplomat"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
)

func onIOS(t *testing.T, body func(th *kernel.Thread, sys *core.System)) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallIOSBinary("/bin/dip", "dip-"+t.Name(), nil, func(c *prog.Call) uint64 {
		body(c.Ctx.(*kernel.Thread), sys)
		return 0
	})
	sys.Start("/bin/dip", nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestArbitrationRestoresPersonaAndForwardsArgs(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		var sawPersona persona.Kind
		var sawArgs []uint64
		sys.Registry.MustRegister("dom-fn", func(c *prog.Call) uint64 {
			dt := c.Ctx.(*kernel.Thread)
			sawPersona = dt.Persona.Current()
			sawArgs = c.Args
			return c.Arg(0) + c.Arg(1)
		})
		dip := sys.Diplomat.Wrap("dom-fn")
		ret := dip(&prog.Call{Ctx: th, Args: []uint64{40, 2}})
		if ret != 42 {
			t.Errorf("ret = %d", ret)
		}
		// Step 3/5: the domestic function ran in the domestic persona.
		if sawPersona != persona.Android {
			t.Errorf("domestic fn saw persona %v", sawPersona)
		}
		if len(sawArgs) != 2 || sawArgs[0] != 40 {
			t.Errorf("args = %v", sawArgs)
		}
		// Step 7: the caller is back in the foreign persona.
		if th.Persona.Current() != persona.IOS {
			t.Errorf("caller persona = %v after diplomat", th.Persona.Current())
		}
	})
}

func TestFirstInvocationResolvesAndCaches(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		sys.Registry.MustRegister("dom-cheap", func(c *prog.Call) uint64 { return 0 })
		dip := sys.Diplomat.Wrap("dom-cheap")
		start := th.Now()
		dip(&prog.Call{Ctx: th})
		first := th.Now() - start
		start = th.Now()
		dip(&prog.Call{Ctx: th})
		second := th.Now() - start
		// "Upon first invocation, a diplomat loads the appropriate
		// domestic library and locates the required entry point, storing a
		// pointer ... for efficient reuse."
		if first < 10*second {
			t.Errorf("first call (%v) should dwarf cached calls (%v)", first, second)
		}
		if second > 10*time.Microsecond {
			t.Errorf("cached diplomat call = %v, want a few µs", second)
		}
	})
}

// TestWarmCallCharges pins what a warm diplomatic call costs: its two
// set_persona traps, measured directly on the same thread, plus the
// staging charges of steps 2, 4, 6 and 9 (90 cycles each) and the TLS
// conversion of step 8 (65 cycles). The Fig. 6 claims cannot see the
// staging charges beside the traps, so this test is what holds them.
func TestWarmCallCharges(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		sys.Registry.MustRegister("dom-noop", func(c *prog.Call) uint64 { return 0 })
		dip := sys.Diplomat.Wrap("dom-noop")
		dip(&prog.Call{Ctx: th}) // resolve and cache the entry point
		start := th.Now()
		th.Syscall(abi.SetPersonaTrap, &kernel.SyscallArgs{I: [6]uint64{uint64(persona.Android)}})
		th.Syscall(kernel.SysSetPersona, &kernel.SyscallArgs{I: [6]uint64{uint64(persona.IOS)}})
		traps := th.Now() - start
		start = th.Now()
		dip(&prog.Call{Ctx: th})
		got := th.Now() - start
		cpu := sys.Kernel.Device().CPU
		if want := traps + 4*cpu.Cycles(90) + cpu.Cycles(65); got != want {
			t.Errorf("warm diplomatic call = %v, want %v (traps %v + 4 x 90 + 65 cycles)", got, want, traps)
		}
	})
}

func TestUnknownDomesticSymbolFails(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		dip := sys.Diplomat.Wrap("no-such-domestic-symbol")
		if ret := dip(&prog.Call{Ctx: th}); ret != ^uint64(0) {
			t.Errorf("ret = %#x, want all-ones failure", ret)
		}
		// The thread must still be usable and in its own persona.
		if th.Persona.Current() != persona.IOS {
			t.Error("persona corrupted by failed diplomat")
		}
	})
}

func TestBatchSingleRoundTrip(t *testing.T) {
	onIOS(t, func(th *kernel.Thread, sys *core.System) {
		var personaInside persona.Kind
		switchesBefore := th.Persona.Switches()
		sys.Diplomat.Batch(th, func() {
			personaInside = th.Persona.Current()
		})
		if personaInside != persona.Android {
			t.Errorf("batch body ran in %v", personaInside)
		}
		if th.Persona.Current() != persona.IOS {
			t.Error("persona not restored after batch")
		}
		if got := th.Persona.Switches() - switchesBefore; got != 2 {
			t.Errorf("batch used %d switches, want exactly 2", got)
		}
	})
}

func TestGenerateOrderingDeterministic(t *testing.T) {
	// The generator sorts output; two Cider boots must agree.
	sys1, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys1.GLSpecs) != len(sys2.GLSpecs) {
		t.Fatal("spec counts differ")
	}
	for i := range sys1.GLSpecs {
		if sys1.GLSpecs[i] != sys2.GLSpecs[i] {
			t.Fatalf("spec %d differs: %+v vs %+v", i, sys1.GLSpecs[i], sys2.GLSpecs[i])
		}
	}
	// And each spec is well-formed.
	for _, sp := range sys1.GLSpecs {
		if sp.ForeignSymbol == "" || sp.DomesticLib == "" || sp.DomesticSymbol == "" {
			t.Fatalf("malformed spec %+v", sp)
		}
		if sp.ForeignSymbol[0] != '_' {
			t.Fatalf("foreign symbol %q missing Mach-O underscore", sp.ForeignSymbol)
		}
		if "_"+sp.DomesticSymbol != sp.ForeignSymbol {
			t.Fatalf("name mismatch: %q vs %q", sp.ForeignSymbol, sp.DomesticSymbol)
		}
	}
	_ = diplomat.Spec{}
}
