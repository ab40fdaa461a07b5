package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/posix"
)

// TestEnableFaultsHooksVFSOnlyForVFSRules pins when EnableFaults hooks
// the filesystems: a plan without OpVFS rules leaves both FaultHooks nil
// (a hook would only build keys for a Check that never fires), a plan
// with an OpVFS lookup rule installs them and the rule still fires in a
// running process, and replacing it with a rule-free plan clears them.
func TestEnableFaultsHooksVFSOnlyForVFSRules(t *testing.T) {
	sys, err := NewSystem(ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hooked := func() (bool, bool) { return sys.AndroidFS.FaultHook != nil, sys.IOSFS.FaultHook != nil }

	noVFS := fault.Plan{Seed: 3, Rules: []fault.Rule{{Op: fault.OpSyscall, Match: "linux:getpid", Errno: 4, Every: 7}}}
	sys.EnableFaults(noVFS)
	if a, i := hooked(); a || i {
		t.Fatalf("plan without OpVFS rules hooked the filesystems (android %v, ios %v)", a, i)
	}

	sys.EnableFaults(fault.Plan{Seed: 3, Rules: []fault.Rule{{Op: fault.OpVFS, Match: "lookup:/dev/null", Errno: 5, Nth: 1}}})
	if a, i := hooked(); !a || !i {
		t.Fatalf("plan with an OpVFS rule left a filesystem unhooked (android %v, ios %v)", a, i)
	}
	var first, second kernel.Errno
	err = sys.InstallStaticAndroidBinary("/bin/opener", "opener", kernel.Entry(func(th *kernel.Thread) {
		c := posix.New(persona.Android, th)
		_, first = c.Open("/dev/null")
		fd, errno := c.Open("/dev/null")
		if second = errno; errno == kernel.OK {
			c.Close(fd)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Start("/bin/opener", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if first == kernel.OK || second != kernel.OK || sys.Fault.Fired() != 1 {
		t.Errorf("lookup rule: opens returned %v then %v with %d injection(s), want a failure then OK with 1",
			first, second, sys.Fault.Fired())
	}

	sys.EnableFaults(noVFS)
	if a, i := hooked(); a || i {
		t.Errorf("replacing the plan left the hook (android %v, ios %v)", a, i)
	}
}
