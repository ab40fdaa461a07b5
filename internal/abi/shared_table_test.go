package abi

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// TestSharedTablesRegisterStaysPrivate boots Cider kernels in parallel.
// Every kernel installs views of the same Linux and XNU tables; half of
// them then register a spy over getpid in both, while the others dispatch
// through theirs. Register copies a view's handler arrays first, so no
// sibling, and no kernel booted afterwards, sees a spy; under -race the
// registrations and the siblings' lookups share no memory either.
func TestSharedTablesRegisterStaysPrivate(t *testing.T) {
	const kernels = 8
	boot := func() (*kernel.Kernel, error) {
		k, err := kernel.New(sim.New(), kernel.Config{
			Profile: kernel.ProfileCider, Device: hw.Nexus7(), Root: vfs.New(), Registry: prog.NewRegistry(),
		})
		if err != nil {
			return nil, err
		}
		k.InstallLinuxTable()
		InstallXNUTable(k)
		return k, nil
	}
	spy := func(*kernel.Thread, *kernel.SyscallArgs) kernel.SyscallRet { return kernel.SyscallRet{} }
	names := make([][2]string, kernels)
	errs := make([]error, kernels)
	var wg sync.WaitGroup
	for i := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := boot()
			if err != nil {
				errs[i] = err
				return
			}
			linux, ios := k.SyscallTableFor(persona.Android), k.SyscallTableFor(persona.IOS)
			if i%2 == 0 {
				linux.Register(kernel.SysGetpid, fmt.Sprintf("spy%d", i), spy)
				ios.Register(XNUGetpid, fmt.Sprintf("spy%d", i), spy)
			}
			for range 100 {
				linux.Lookup(kernel.SysGetpid)
				ios.Lookup(XNUGetpid)
			}
			names[i] = [2]string{linux.NameOf(kernel.SysGetpid), ios.NameOf(XNUGetpid)}
		}()
	}
	wg.Wait()
	for i, n := range names {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want := "getpid"
		if i%2 == 0 {
			want = fmt.Sprintf("spy%d", i)
		}
		if n[0] != want || n[1] != want {
			t.Errorf("kernel %d: getpid is %q (linux) and %q (xnu), want %q", i, n[0], n[1], want)
		}
	}
	k, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*kernel.SyscallTable{k.SyscallTableFor(persona.Android), k.SyscallTableFor(persona.IOS)} {
		if !tb.Shared() {
			t.Errorf("a fresh kernel's %s table is not a view of the shared one", tb.Name)
		}
		if got := tb.NameOf(kernel.SysGetpid); got != "getpid" {
			t.Errorf("a kernel booted after the spies sees %q in its %s table", got, tb.Name)
		}
	}
}
