package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/bionic"
	"repro/internal/core"
	"repro/internal/dalvik"
	"repro/internal/diffcheck"
	"repro/internal/ducttape"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xnu"
)

// counts is the simulated work of one iteration, by layer. A count the
// harness cannot observe on a workload stays 0 (see the package doc).
type counts struct {
	CoreBoots   [3]uint64 `json:"core_boots"` // by core.Config
	KernelBoots uint64    `json:"kernel_boots"`
	Syscalls    [2]uint64 `json:"syscalls"` // by persona.Kind
	Forks       [2]uint64 `json:"forks"`    // by persona.Kind
	Errors      uint64    `json:"errors"`
	Execs       uint64    `json:"execs"`
	MachMsgs    uint64    `json:"mach_msgs"`
	Blocks      uint64    `json:"blocks"`
	Wakes       uint64    `json:"wakes"`
	Spawns      uint64    `json:"spawns"`
	Images      uint64    `json:"images"`
	Binds       uint64    `json:"binds"`
	Diplomat    uint64    `json:"diplomat"`
	Respawns    uint64    `json:"respawns"`
	Reports     uint64    `json:"reports"`
	ExcRaised   uint64    `json:"exc_raised"`
	Injected    uint64    `json:"injected"`
	Decisions   uint64    `json:"decisions"`
}

// syscall adds n calls of the named syscall made under persona k.
func (c *counts) syscall(k persona.Kind, name string, n, errs uint64) {
	c.Syscalls[k] += n
	c.Errors += errs
	switch name {
	case "fork":
		c.Forks[k] += n
	case "execve":
		c.Execs += n
	case "mach_msg":
		c.MachMsgs += n
	}
}

// addCounters adds the trace counters the per-layer metrics read.
func (c *counts) addCounters(m map[string]uint64) {
	c.Images += m[trace.CounterDyldImages]
	c.Binds += m[trace.CounterDyldBinds]
	c.Diplomat += m[trace.CounterDiplomatCalls]
	c.Respawns += m[trace.CounterLaunchdRespawns]
	c.Reports += m[trace.CounterCrashReports]
	c.ExcRaised += m[trace.CounterExcRaised]
	c.Injected += m[trace.CounterFaultInjected]
}

// addSession adds everything a cell's trace session recorded.
func (c *counts) addSession(s *trace.Session) {
	sum := s.Summarize(false)
	for _, st := range sum.Syscalls {
		c.syscall(st.Key.Persona, st.Name, st.Hist.Count, st.Errors)
	}
	c.Blocks += s.SchedCount(sim.SchedBlock)
	c.Wakes += s.SchedCount(sim.SchedWake)
	c.Spawns += s.SchedCount(sim.SchedSpawn)
	c.addCounters(sum.Counters)
}

// sub removes the simulated work counted in o, for the fields a
// microbenchmark's own work is read from.
func (c *counts) sub(o counts) {
	for k := range c.Syscalls {
		c.Syscalls[k] -= o.Syscalls[k]
		c.Forks[k] -= o.Forks[k]
	}
	c.MachMsgs -= o.MachMsgs
	c.Blocks -= o.Blocks
	c.Images -= o.Images
	c.Diplomat -= o.Diplomat
}

// addDiffcheckCell counts a diffcheck cell from its normalized event
// streams ("sysexit proc[pid] name errno=N"), which omit scheduler
// events, and its counters. Every diffcheck cell boots a bare kernel.
func (c *counts) addDiffcheckCell(res *diffcheck.CellResult) {
	c.KernelBoots++
	for _, lines := range res.Events {
		for _, line := range lines {
			f := strings.Fields(line)
			if len(f) < 4 || f[0] != "sysexit" {
				continue
			}
			var errs uint64
			if f[3] != "errno=0" {
				errs = 1
			}
			c.syscall(res.Persona, f[2], 1, errs)
		}
	}
	c.addCounters(res.Counters)
}

// micro is one public-API microbenchmark's result: host time per op and
// the simulated work one op does, which the reconciliation subtracts so
// that no host time is counted twice.
type micro struct {
	NS  float64 `json:"ns"`
	Own counts  `json:"own"`
}

// micros are the unit costs of the per-layer metrics and the
// reconciliation, all measured on this host in this run.
type micros struct {
	SwitchNS     float64  `json:"switch_ns"`
	SwitchAllocs float64  `json:"switch_allocs"`
	Null         [2]micro `json:"null"`      // by persona.Kind
	CoreBoot     [3]micro `json:"core_boot"` // by core.Config
	KernelBoot   micro    `json:"kernel_boot"`
	Exec         micro    `json:"exec"` // one hello iOS binary, 115 dylibs
	Fork         [2]micro `json:"fork"`
	Mach         micro    `json:"mach"` // one send + receive round trip
	Diplomat     micro    `json:"diplomat"`
	Consult      micro    `json:"consult"`
	BytecodeNS   float64  `json:"bytecode_ns"`
	Lookup       micro    `json:"lookup"`
}

// runMicros runs every microbenchmark through testing.Benchmark.
func runMicros(sp *spans) (*micros, error) {
	m := &micros{}
	var err error
	step := func(name string, f func() error) {
		if err != nil {
			return
		}
		id := sp.begin("micro."+name, 0)
		if ferr := f(); ferr != nil {
			err = fmt.Errorf("micro %s: %w", name, ferr)
		}
		sp.end(id)
	}
	step("switch", func() error {
		m.SwitchNS, m.SwitchAllocs = switchBench()
		return nil
	})
	for _, k := range []persona.Kind{persona.Android, persona.IOS} {
		step("null_syscall."+personaName(k), func() (err error) {
			m.Null[k], err = procBench(k, func(t *kernel.Thread, _ *core.System) (func(), error) {
				if k == persona.IOS {
					c := libsystem.Sys(t)
					return func() { c.GetPPID() }, nil
				}
				c := bionic.Sys(t)
				return func() { c.GetPPID() }, nil
			})
			return err
		})
		step("fork_exit."+personaName(k), func() (err error) {
			m.Fork[k], err = procBench(k, func(t *kernel.Thread, _ *core.System) (func(), error) {
				if k == persona.IOS {
					c := libsystem.Sys(t)
					return func() { c.Wait(c.Fork(func(cc *libsystem.C) { cc.Exit(0) })) }, nil
				}
				c := bionic.Sys(t)
				return func() { c.Wait(c.Fork(func(cc *bionic.C) { cc.Exit(0) })) }, nil
			})
			return err
		})
	}
	for _, cfg := range []core.Config{core.ConfigVanilla, core.ConfigCider, core.ConfigIPad} {
		step("core.boot."+cfg.String(), func() (err error) {
			m.CoreBoot[cfg], err = bench(func() error {
				_, err := core.NewSystem(cfg)
				return err
			})
			return err
		})
	}
	step("kernel.boot", func() (err error) {
		m.KernelBoot, err = bench(func() error {
			_, err := bareKernel()
			return err
		})
		return err
	})
	step("dyld.exec_ios", func() (err error) {
		m.Exec, err = execBench()
		return err
	})
	step("xnu.mach_send_recv", func() (err error) {
		m.Mach, err = procBench(persona.IOS, func(t *kernel.Thread, _ *core.System) (func(), error) {
			c := libsystem.Sys(t)
			port := c.MachReplyPort()
			var kr xnu.KernReturn
			op := func() {
				if kr = c.MachSend(port, &xnu.Message{ID: 1}, -1); kr == xnu.KernSuccess {
					_, kr = c.MachReceive(port, -1)
				}
			}
			op()
			if kr != xnu.KernSuccess {
				return nil, fmt.Errorf("self round trip: kr=%#x", kr)
			}
			return op, nil
		})
		return err
	})
	step("diplomat.call", func() (err error) {
		m.Diplomat, err = procBench(persona.IOS, func(t *kernel.Thread, sys *core.System) (func(), error) {
			s, err := sys.Gfx.SF.CreateSurface(t, "hostbench", 640, 480)
			if err != nil {
				return nil, err
			}
			sys.Gfx.GLES.MakeCurrent(t, sys.Gfx.GLES.NewContext(s))
			dip := sys.Diplomat.Wrap("/system/lib/libGLESv2.so#glEnable")
			op := func() { dip(&prog.Call{Ctx: t}) }
			op() // resolve the symbol outside the timed loop
			return op, nil
		})
		return err
	})
	step("fault.consult", func() (err error) {
		s, _ := soak.ScheduleByName("daemon-crash")
		in := fault.NewInjector(s.Plan)
		m.Consult, err = bench(func() error {
			if _, ok := in.Check(fault.OpCrash, "/bin/lmbench", 0); ok {
				return fmt.Errorf("consult of an unmatched path fired")
			}
			return nil
		})
		return err
	})
	step("dalvik.bytecode", func() (err error) {
		m.BytecodeNS, err = bytecodeBench()
		return err
	})
	step("vfs.lookup", func() error {
		fs := vfs.New()
		const path = "/usr/lib/system/deep/libsystem_kernel.dylib"
		if err := fs.MkdirAll("/usr/lib/system/deep"); err != nil {
			return err
		}
		if err := fs.WriteFile(path, []byte("x")); err != nil {
			return err
		}
		var err error
		m.Lookup, err = bench(func() error {
			_, err := fs.Lookup(path)
			return err
		})
		return err
	})
	return m, err
}

func personaName(k persona.Kind) string {
	if k == persona.IOS {
		return "ios"
	}
	return "android"
}

// bench times op through testing.Benchmark; an op error stops it.
func bench(op func() error) (micro, error) {
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && err == nil; i++ {
			err = op()
		}
	})
	if err != nil {
		return micro{}, err
	}
	return micro{NS: float64(r.T.Nanoseconds()) / float64(r.N)}, nil
}

// procBench times an op run inside a process of persona k on a booted
// Cider system. prep runs in the process first and returns the op. A
// second, traced system runs the op once to count its own simulated work.
func procBench(k persona.Kind, prep func(*kernel.Thread, *core.System) (func(), error)) (micro, error) {
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		if err != nil {
			return
		}
		err = inProc(k, false, func(t *kernel.Thread, sys *core.System) error {
			op, perr := prep(t, sys)
			if perr != nil {
				return perr
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			return nil
		})
	})
	if err != nil {
		return micro{}, err
	}
	m := micro{NS: float64(r.T.Nanoseconds()) / float64(r.N)}
	err = inProc(k, true, func(t *kernel.Thread, sys *core.System) error {
		op, perr := prep(t, sys)
		if perr != nil {
			return perr
		}
		var before counts
		before.addSession(sys.Trace)
		op()
		m.Own.addSession(sys.Trace)
		m.Own.sub(before)
		return nil
	})
	return m, err
}

// inProc boots a Cider system, runs body in a process of persona k
// (an iOS binary linking libSystem's 115 dylibs, or a static ELF), and
// runs the system until the process exits.
func inProc(k persona.Kind, traced bool, body func(*kernel.Thread, *core.System) error) error {
	sys, err := core.NewSystem(core.ConfigCider)
	if err != nil {
		return err
	}
	if traced {
		sys.EnableTrace().SetRingCapacity(0)
	}
	var berr error
	fn := func(c *prog.Call) uint64 {
		berr = body(c.Ctx.(*kernel.Thread), sys)
		return 0
	}
	const path = "/bin/hostbench"
	if k == persona.IOS {
		err = sys.InstallIOSBinary(path, "hostbench", nil, fn)
	} else {
		err = sys.InstallStaticAndroidBinary(path, "hostbench", fn)
	}
	if err != nil {
		return err
	}
	if _, err := sys.Start(path, nil); err != nil {
		return err
	}
	if err := sys.Run(); err != nil {
		return err
	}
	return berr
}

// execBench times Start+Run of a hello iOS binary (115 dylibs) on one
// booted Cider system, the exec/dyld path every iOS cell pays.
func execBench() (micro, error) {
	setup := func(traced bool) (*core.System, func() error, error) {
		sys, err := core.NewSystem(core.ConfigCider)
		if err != nil {
			return nil, nil, err
		}
		if traced {
			sys.EnableTrace().SetRingCapacity(0)
		}
		const path = "/bin/hello-ios"
		if err := sys.InstallIOSBinary(path, "hostbench-hello", nil, func(*prog.Call) uint64 { return 0 }); err != nil {
			return nil, nil, err
		}
		return sys, func() error {
			if _, err := sys.Start(path, nil); err != nil {
				return err
			}
			return sys.Run()
		}, nil
	}
	_, op, err := setup(false)
	if err != nil {
		return micro{}, err
	}
	m, err := bench(op)
	if err != nil {
		return micro{}, err
	}
	sys, op, err := setup(true)
	if err != nil {
		return micro{}, err
	}
	if err := op(); err != nil {
		return micro{}, err
	}
	m.Own.addSession(sys.Trace)
	return m, nil
}

// bareKernel boots the minimal kernel diffcheck and the soak mach cell
// run on: no FS template, no dyld, both syscall tables and Mach IPC.
func bareKernel() (*kernel.Kernel, error) {
	k, err := kernel.New(sim.New(), kernel.Config{
		Profile: kernel.ProfileCider, Device: hw.Nexus7(),
		Root: vfs.New(), Registry: prog.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	k.InstallLinuxTable()
	abi.InstallXNUTable(k)
	if _, err := xnu.InstallIPC(k, ducttape.NewEnv(k)); err != nil {
		return nil, err
	}
	k.RegisterBinFmt(&kernel.ELFLoader{})
	return k, nil
}

// bytecodeBench returns host ns per interpreted Dalvik bytecode: a VM
// runs an assembled sum loop, and the op time is divided by the VM's
// own executed-instruction count.
func bytecodeBench() (float64, error) {
	const n = 1000
	method, err := dalvik.NewAssembler("sum", 8).
		Const(1, 0). // acc
		Const(2, 0). // i
		Const(3, 1).
		Label("loop").
		Op3(dalvik.OpCmp, 4, 2, 0).
		If(4, dalvik.IfGe, "done").
		Op3(dalvik.OpAdd, 1, 1, 2).
		Op3(dalvik.OpAdd, 2, 2, 3).
		Goto("loop").
		Label("done").
		Return(1).
		Assemble()
	if err != nil {
		return 0, err
	}
	f := &dalvik.File{Methods: []dalvik.Method{method}}
	var vm *dalvik.VM
	var perOp uint64
	m, err := procBench(persona.Android, func(t *kernel.Thread, sys *core.System) (func(), error) {
		vm = dalvik.NewVM(sys.Kernel.Device().CPU)
		got, err := vm.Run(t, f, "sum", n)
		if err != nil {
			return nil, err
		}
		if got != n*(n-1)/2 {
			return nil, fmt.Errorf("sum loop returned %d", got)
		}
		perOp = vm.Executed()
		return func() { vm.Run(t, f, "sum", n) }, nil
	})
	if err != nil {
		return 0, err
	}
	return m.NS / float64(perOp), nil
}

// switchBench measures one simulated context switch: two Procs bouncing
// park/wake, each round trip two run-token handoffs. Allocations are per
// round trip, amortized over the rounds of one sim.
func switchBench() (nsPerSwitch, allocsPerRound float64) {
	const rounds = 1000
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := sim.New()
			var pa, pb *sim.Proc
			pa = s.Spawn("a", func(p *sim.Proc) {
				for j := 0; j < rounds; j++ {
					p.Advance(time.Microsecond)
					p.Wake(pb, sim.WakeNormal)
					if p.Park("pong") == sim.WakeInterrupted {
						return
					}
				}
				p.Wake(pb, sim.WakeInterrupted)
			})
			pb = s.Spawn("b", func(p *sim.Proc) {
				for {
					if p.Park("ping") == sim.WakeInterrupted {
						return
					}
					p.Advance(time.Microsecond)
					p.Wake(pa, sim.WakeNormal)
				}
			})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(res.T.Nanoseconds()) / float64(res.N) / (2 * rounds),
		float64(res.MemAllocs) / float64(res.N) / rounds
}
