package posix

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
)

var kinds = [...]persona.Kind{persona.Android, persona.IOS}

// runAs boots a bare Cider kernel with both syscall tables, runs body on
// the main thread of a process in persona kind, and returns once the
// simulation has finished. The filesystem holds one non-empty directory,
// /dir, for the errno cases. body runs on a simulator goroutine, so it
// records what it sees and the test checks afterwards.
func runAs(t *testing.T, kind persona.Kind, body func(th *kernel.Thread, c Libc)) {
	t.Helper()
	sm := sim.New()
	defer sm.Close()
	root := vfs.New()
	if err := root.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteFile("/dir/file", nil); err != nil {
		t.Fatal(err)
	}
	k, err := kernel.New(sm, kernel.Config{
		Profile: kernel.ProfileCider, Device: hw.Nexus7(),
		Root: root, Registry: prog.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	k.InstallLinuxTable()
	abi.InstallXNUTable(k)
	k.RegisterBinFmt(&kernel.ELFLoader{})
	k.Registry().MustRegister("posix-test", func(call *prog.Call) uint64 {
		th := call.Ctx.(*kernel.Thread)
		th.Persona.Switch(kind)
		body(th, New(kind, th))
		return 0
	})
	if err := prog.InstallStatic(root, "/bin/posix-test", "posix-test"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.StartProcess("/bin/posix-test", nil); err != nil {
		t.Fatal(err)
	}
	if err := sm.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSignalsCanonical installs a handler for and sends to itself every
// signal in diffcheck's generator pool: the shared-numbering baseline
// (HUP), the classic translated pairs (USR1, USR2) and every number the
// signal bijection covers (TSTP, URG, IO, PWR, SYS). Each persona must
// deliver exactly the canonical number it was asked for.
func TestSignalsCanonical(t *testing.T) {
	signals := [...]int{
		kernel.SIGHUP, kernel.SIGUSR1, kernel.SIGUSR2, kernel.SIGTSTP,
		kernel.SIGURG, kernel.SIGIO, kernel.SIGPWR, kernel.SIGSYS,
	}
	for _, kind := range kinds {
		for _, sig := range signals {
			t.Run(fmt.Sprintf("%v/%d", kind, sig), func(t *testing.T) {
				var delivered []int
				var act, kill kernel.Errno
				runAs(t, kind, func(_ *kernel.Thread, c Libc) {
					act = c.Sigaction(sig, func(got int) { delivered = append(delivered, got) })
					kill = c.Kill(c.GetPID(), sig)
				})
				if act != kernel.OK || kill != kernel.OK || !slices.Equal(delivered, []int{sig}) {
					t.Errorf("sigaction=%v kill=%v delivered=%v, want OK OK [%d]", act, kill, delivered, sig)
				}
			})
		}
	}
}

// TestRlimitNoFileRoundTrip sets RLIMIT_NOFILE by its canonical number,
// reads it back through the library, and reads the limit the kernel
// actually holds for the task.
func TestRlimitNoFileRoundTrip(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			var setErr, getErr kernel.Errno
			var cur, max uint64
			var held kernel.RLimit
			runAs(t, kind, func(th *kernel.Thread, c Libc) {
				setErr = c.Setrlimit(kernel.RLimitNoFile, 40, 4096)
				cur, max, getErr = c.Getrlimit(kernel.RLimitNoFile)
				held = th.Task().Rlimit(kernel.RLimitNoFile)
			})
			if setErr != kernel.OK || getErr != kernel.OK || cur != 40 || max != 4096 {
				t.Errorf("set=%v get=(%d, %d, %v), want OK (40, 4096, OK)", setErr, cur, max, getErr)
			}
			if held != (kernel.RLimit{Cur: 40, Max: 4096}) {
				t.Errorf("kernel holds %+v for RLIMIT_NOFILE, want {Cur:40 Max:4096}", held)
			}
		})
	}
}

// TestErrnoCanonical reads the TLS errno after two failing calls: close(-1)
// posts EBADF, which has one number in both numberings, and unlinking a
// non-empty directory posts ENOTEMPTY, which BSD numbers 66 and Linux 39.
func TestErrnoCanonical(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			var closeErr, unlinkErr kernel.Errno
			var afterClose, afterUnlink int
			runAs(t, kind, func(_ *kernel.Thread, c Libc) {
				closeErr = c.Close(-1)
				afterClose = c.Errno()
				unlinkErr = c.Unlink("/dir")
				afterUnlink = c.Errno()
			})
			if closeErr != kernel.EBADF || afterClose != int(kernel.EBADF) {
				t.Errorf("close(-1) = %v, Errno() = %d, want EBADF %d", closeErr, afterClose, kernel.EBADF)
			}
			if unlinkErr != kernel.ENOTEMPTY || afterUnlink != int(kernel.ENOTEMPTY) {
				t.Errorf("unlink(/dir) = %v, Errno() = %d, want ENOTEMPTY %d", unlinkErr, afterUnlink, kernel.ENOTEMPTY)
			}
		})
	}
}

// TestPressureLevels drives one warn and then one critical episode
// through the kernel's memorystatus ladder and checks that each persona's
// listener hears them in the canonical vocabulary. The task is marked
// essential so the critical episode finds no victim.
func TestPressureLevels(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			var levels []string
			runAs(t, kind, func(th *kernel.Thread, c Libc) {
				c.OnPressure(func(level string) { levels = append(levels, level) })
				k := th.Kernel()
				k.Memorystatus().SetEssential(th.Task())
				// Armed only now, so exec's own footprint growth is not
				// counted: the next growth is a warn episode, the one
				// after it critical.
				k.EnableFaults(fault.NewInjector(fault.Plan{Name: "pressure", Rules: []fault.Rule{
					{Op: fault.OpMemPressure, Errno: int(kernel.PressureWarn), Count: 1},
					{Op: fault.OpMemPressure, Errno: int(kernel.PressureCritical), Nth: 1},
				}}))
				for i := 0; i < 2; i++ {
					r, err := th.Task().Mem().Map(0, mem.PageSize, mem.ProtRead|mem.ProtWrite, "[grow]", false)
					if err != nil {
						t.Error(err)
						return
					}
					r.Backing().Bytes()
				}
			})
			if want := []string{PressureWarn, PressureCritical}; !slices.Equal(levels, want) {
				t.Errorf("levels = %v, want %v", levels, want)
			}
		})
	}
}
