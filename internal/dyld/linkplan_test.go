package dyld_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dyld"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/libsystem"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Link-plan tests: an exec that replays a recorded plan must be
// indistinguishable from one that walks the filesystem, including when the
// filesystem has changed since the plan was recorded and when a fault
// fails a mapping part-way through. Each comparison runs the same
// scenario on two fresh Systems: once with a plan recorded from the
// pristine image, once after clearing the plan cache.

// execObs is everything one exec's dyld run can show.
type execObs struct {
	Status   int
	Ran      bool
	ProbeAt  time.Duration
	ExitAt   time.Duration
	Maps     string
	MapCalls []string
	Images   []string
	Handlers [4]int
	Counters []trace.NamedCounter
	Events   string
}

// observeExec boots a traced Cider system, lets prepare change it, runs
// one iOS exec and records what the exec left behind.
func observeExec(t *testing.T, prepare func(*core.System)) execObs {
	t.Helper()
	sys, obs := probeSystem(t)
	defer sys.Close()
	if prepare != nil {
		prepare(sys)
	}
	return runProbe(t, sys, obs)
}

// observeSecondExec boots a traced Cider system, lets setup change it,
// runs the probe exec once, lets mutate change the system and records
// what a second exec of the probe in the same system left behind.
func observeSecondExec(t *testing.T, setup func(*core.System) error, mutate func(*core.System)) execObs {
	t.Helper()
	sys, obs := probeSystem(t)
	defer sys.Close()
	if setup != nil {
		if err := setup(sys); err != nil {
			t.Fatal(err)
		}
	}
	runProbe(t, sys, obs)
	*obs = execObs{}
	mutate(sys)
	return runProbe(t, sys, obs)
}

// probeSystem boots a traced Cider system with the probe binary
// installed; the probe fills in the returned record when it runs.
func probeSystem(t *testing.T) (*core.System, *execObs) {
	t.Helper()
	sys, err := core.NewSystem(core.ConfigCider, core.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	obs := new(execObs)
	if err := sys.InstallIOSBinary("/bin/plan-probe", "linkplan-probe", nil, func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		obs.Ran = true
		obs.ProbeAt = th.Now()
		obs.Maps = th.Task().Mem().Maps()
		return 0
	}); err != nil {
		sys.Close()
		t.Fatal(err)
	}
	return sys, obs
}

// runProbe execs the probe on sys, runs the system and returns obs
// completed with what the exec left behind.
func runProbe(t *testing.T, sys *core.System, obs *execObs) execObs {
	t.Helper()
	tk, err := sys.Start("/bin/plan-probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	hook := tk.Mem().MapHook
	tk.Mem().MapHook = func(size uint64, name string) error {
		err := hook(size, name)
		obs.MapCalls = append(obs.MapCalls, fmt.Sprintf("%v %s %d %v", sys.Sim.Current().Now(), name, size, err))
		return err
	}
	sys.Kernel.OnTaskExit(func(th *kernel.Thread) {
		if th.Task() == tk {
			obs.ExitAt = th.Now()
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	obs.Status = tk.ExitStatus()
	if im, ok := dyld.ImagesFor(tk); ok {
		for _, img := range im.List() {
			obs.Images = append(obs.Images, img.Path)
		}
	}
	obs.Handlers[0], obs.Handlers[1], obs.Handlers[2], obs.Handlers[3] = libsystem.ForTask(tk).Counts()
	obs.Counters = sys.Trace.Counters()
	obs.Events = sys.Trace.EventsText()
	return *obs
}

// compareObs fails t on the first field where the replayed exec differs
// from the walked one.
func compareObs(t *testing.T, replayed, walked execObs) {
	t.Helper()
	rv, wv := reflect.ValueOf(replayed), reflect.ValueOf(walked)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s differs:\nreplayed: %v\nwalked:   %v", rv.Type().Field(i).Name,
				rv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}

// replayVsWalk runs prepare's scenario with a plan recorded from the
// pristine image and again with no plan at all.
func replayVsWalk(t *testing.T, prepare func(*core.System)) (replayed, walked execObs) {
	t.Helper()
	t.Cleanup(dyld.ResetLinkPlans)
	dyld.ResetLinkPlans()
	observeExec(t, nil)
	if n := dyld.LinkPlansLen(); n != 1 {
		t.Fatalf("a pristine exec recorded %d link plans, want 1", n)
	}
	replayed = observeExec(t, prepare)
	dyld.ResetLinkPlans()
	walked = observeExec(t, prepare)
	compareObs(t, replayed, walked)
	return replayed, walked
}

func TestLinkPlanReplayMatchesWalk(t *testing.T) {
	replayed, _ := replayVsWalk(t, nil)
	if !replayed.Ran || len(replayed.Images) != len(core.IOSDylibs()) {
		t.Fatalf("replayed exec: ran=%v with %d images, want %d", replayed.Ran, len(replayed.Images), len(core.IOSDylibs()))
	}
	if replayed.Handlers != [4]int{115, 115, 115, 115} {
		t.Fatalf("handlers = %v, want one atexit and one atfork triple per image", replayed.Handlers)
	}
}

// midLib is a dylib the walk loads about halfway through.
func midLib() string { return core.IOSDylibs()[57] }

func TestLinkPlanInvalidation(t *testing.T) {
	pristine := observeExec(t, nil)
	cases := []struct {
		name    string
		prepare func(*core.System)
		check   func(execObs) error
	}{
		{"removed dylib", func(sys *core.System) {
			if err := sys.IOSFS.Remove(midLib()); err != nil {
				t.Fatal(err)
			}
		}, func(o execObs) error {
			if o.Ran || o.Status != 255 || len(o.Images) != 57 {
				return fmt.Errorf("ran=%v status=%d images=%d, want a failed launch after 57 images", o.Ran, o.Status, len(o.Images))
			}
			return nil
		}},
		{"rewritten dylib", func(sys *core.System) {
			bin, err := prog.MachODylib(midLib(), []string{core.LibSystemPath}, []string{"_a", "_b", "_c"}, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			n, err := sys.IOSFS.Lookup(midLib())
			if err != nil {
				t.Fatal(err)
			}
			n.SetData(bin)
		}, func(o execObs) error {
			if !o.Ran || o.Maps == pristine.Maps || reflect.DeepEqual(o.Counters, pristine.Counters) {
				return fmt.Errorf("ran=%v; the rewritten image changed neither the region list nor the counters", o.Ran)
			}
			return nil
		}},
		{"new dependency", func(sys *core.System) {
			const extra = "/usr/lib/libExtra.dylib"
			bin, err := prog.MachODylib(midLib(), []string{core.LibSystemPath, extra}, []string{"_mid"}, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.IOSFS.WriteFile(midLib(), bin); err != nil {
				t.Fatal(err)
			}
			if bin, err = prog.MachODylib(extra, []string{core.UIKitPath}, []string{"_extra"}, 32<<10); err != nil {
				t.Fatal(err)
			}
			if err := sys.IOSFS.WriteFile(extra, bin); err != nil {
				t.Fatal(err)
			}
		}, func(o execObs) error {
			if !o.Ran || len(o.Images) != len(pristine.Images)+1 || o.Images[len(o.Images)-1] != "/usr/lib/libExtra.dylib" {
				return fmt.Errorf("ran=%v images=%d, want the new dependency loaded last", o.Ran, len(o.Images))
			}
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			replayed, _ := replayVsWalk(t, c.prepare)
			if err := c.check(replayed); err != nil {
				t.Fatal(err)
			}
		})
	}

	// The same kinds of change between two execs in one system: the
	// first exec leaves the kernel a memo of where the plan's paths
	// resolve, and the second must see the change exactly as an exec
	// that walks every path does. keep says whether the memo still holds
	// right after mutate (a change that moves no resolved path keeps it).
	lib := midLib()
	between := []struct {
		name   string
		setup  func(*core.System) error
		mutate func(*core.System) error
		keep   bool
		check  func(execObs) error
	}{
		{"unchanged", nil, func(*core.System) error { return nil }, true, ranAll},
		{"rewritten dylib", nil, func(sys *core.System) error {
			bin, err := prog.MachODylib(lib, []string{core.LibSystemPath}, []string{"_a", "_b", "_c"}, 64<<10)
			if err != nil {
				return err
			}
			n, err := sys.IOSFS.Lookup(lib)
			if err != nil {
				return err
			}
			n.SetData(bin)
			return nil
		}, true, ranAll},
		{"created dylib", nil, func(sys *core.System) error {
			// A new name in a directory every step walks through.
			bin, err := prog.MachODylib("/usr/lib/libNew.dylib", []string{core.LibSystemPath}, []string{"_new"}, 32<<10)
			if err != nil {
				return err
			}
			return sys.IOSFS.WriteFile("/usr/lib/libNew.dylib", bin)
		}, true, ranAll},
		{"upper create shadowing a lower hit", func(sys *core.System) error {
			// Move lib, bytes and all, to the overlay's lower layer, so
			// the first exec's memo finds it there.
			n, err := sys.IOSFS.Lookup(lib)
			if err != nil {
				return err
			}
			data := n.Data()
			if err := sys.IOSFS.Remove(lib); err != nil {
				return err
			}
			return sys.AndroidFS.WriteFileShared(lib, data)
		}, func(sys *core.System) error {
			bin, err := prog.MachODylib(lib, []string{core.LibSystemPath}, []string{"_a", "_b", "_c"}, 64<<10)
			if err != nil {
				return err
			}
			return sys.IOSFS.WriteFile(lib, bin)
		}, false, func(o execObs) error {
			if err := ranAll(o); err != nil {
				return err
			}
			if o.Maps == pristine.Maps {
				return fmt.Errorf("the exec mapped the shadowed lower-layer image")
			}
			return nil
		}},
		{"removed dylib", nil, func(sys *core.System) error { return sys.IOSFS.Remove(lib) }, false, failedAtMid},
		{"renamed over", nil, func(sys *core.System) error {
			// A later library moves over lib's path: lib's path now
			// holds its bytes, and its own path is gone.
			return sys.IOSFS.Rename(core.IOSDylibs()[100], lib)
		}, false, func(o execObs) error {
			if o.Ran || o.Status != 255 {
				return fmt.Errorf("ran=%v status=%d, want a failed launch", o.Ran, o.Status)
			}
			return nil
		}},
		{"symlink in path", nil, func(sys *core.System) error {
			if err := sys.IOSFS.Rename("/usr/lib", "/usr/lib.real"); err != nil {
				return err
			}
			return sys.IOSFS.Symlink("/usr/lib.real", "/usr/lib")
		}, false, ranAll},
		// The remover runs during the second exec, so the memo still
		// holds when mutate returns.
		{"removed mid-exec", nil, func(sys *core.System) error {
			// A simulated process (no binary, so no filesystem change
			// before the exec) that wakes a quarter of the way into the
			// exec's library loads removes the dylib while the replay
			// runs: the replay must notice at its next step.
			sys.Sim.Spawn("linkplan-remover", func(p *sim.Proc) {
				p.Sleep(pristine.ProbeAt / 4)
				if err := sys.IOSFS.Remove(lib); err != nil {
					t.Error(err)
				}
			})
			return nil
		}, true, failedAtMid},
		{"vfs fault rule", nil, func(sys *core.System) error {
			sys.EnableFaults(fault.Plan{Name: "dyld-lookup", Rules: []fault.Rule{
				{Op: fault.OpVFS, Match: "lookup:" + lib, Nth: 1, Errno: int(kernel.EIO)},
			}})
			return nil
		}, false, failedAtMid},
	}
	for _, c := range between {
		t.Run("between execs/"+c.name, func(t *testing.T) {
			t.Cleanup(dyld.ResetLinkPlans)
			dyld.ResetLinkPlans()
			observeExec(t, nil)
			mutate := func(sys *core.System) {
				if n := dyld.LinkMemos(sys.Kernel); n != 1 {
					t.Errorf("the first exec left %d link-plan memos, want 1", n)
				}
				if err := c.mutate(sys); err != nil {
					t.Fatal(err)
				}
				if got := dyld.LinkMemoHolds(sys.Kernel); got != c.keep {
					t.Errorf("memo holds after the change: %v, want %v", got, c.keep)
				}
			}
			memo := observeSecondExec(t, c.setup, mutate)
			defer dyld.SetLinkMemo(true)
			dyld.SetLinkMemo(false)
			walked := observeSecondExec(t, c.setup, func(sys *core.System) {
				if err := c.mutate(sys); err != nil {
					t.Fatal(err)
				}
			})
			compareObs(t, memo, walked)
			if err := c.check(memo); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// ranAll checks that an exec ran with every base library loaded.
func ranAll(o execObs) error {
	if !o.Ran || o.Status != 0 || len(o.Images) != len(core.IOSDylibs()) {
		return fmt.Errorf("ran=%v status=%d images=%d, want a launch with all %d", o.Ran, o.Status, len(o.Images), len(core.IOSDylibs()))
	}
	return nil
}

// failedAtMid checks that an exec failed to load midLib.
func failedAtMid(o execObs) error {
	if o.Ran || o.Status != 255 || len(o.Images) != 57 {
		return fmt.Errorf("ran=%v status=%d images=%d, want a failed launch after 57 images", o.Ran, o.Status, len(o.Images))
	}
	return nil
}

// TestLinkPlanMapFaultMatchesWalk fails one dylib's mmap part-way through
// the load: with or without a plan, the exec must fail at the same
// segment, at the same virtual time, with the same partial image table.
func TestLinkPlanMapFaultMatchesWalk(t *testing.T) {
	replayed, _ := replayVsWalk(t, func(sys *core.System) {
		sys.EnableFaults(fault.Plan{Name: "dyld-map", Rules: []fault.Rule{
			{Op: fault.OpMemMap, Match: midLib(), Nth: 1, Errno: int(kernel.ENOMEM)},
		}})
	})
	if replayed.Ran || replayed.Status != 255 || len(replayed.Images) != 57 {
		t.Fatalf("ran=%v status=%d images=%d, want a failed launch after 57 images", replayed.Ran, replayed.Status, len(replayed.Images))
	}
}
