package core

import (
	"testing"

	"repro/internal/dyld"
	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/posix"
	"repro/internal/prog"
)

// TestRewrittenImagesAreParsedAgain rewrites an executable and a dylib
// with bytes of the same length after each has been exec'd, first through
// creat + write and then by overwriting without a truncate, and execs
// again each time: every exec must run the bytes last written. The loaders
// hand the images' stores out (macho.ParseShared and dyld's link plans key
// on the array and its length), so a creat that cleared such a store, or
// a write that landed in it, would serve the old parse of the new bytes.
func TestRewrittenImagesAreParsedAgain(t *testing.T) {
	const (
		appPath = "/tmp/relink-app"
		libPath = "/tmp/librelink.dylib"
	)
	sys, err := NewSystem(ConfigCider)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// Two executables of one length: each exits with its own status.
	var apps [2][]byte
	for i, key := range []string{"relink.appA", "relink.appB"} {
		status := uint64(11 * (i + 1))
		if err := sys.Registry.Register(key, func(*prog.Call) uint64 { return status }); err != nil {
			t.Fatal(err)
		}
		if apps[i], err = prog.MachOExecutable(key, []string{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Two dylibs of one length, exporting different symbols, and a probe
	// linking the dylib that exits with the status naming the export it
	// finds.
	var libs [2][]byte
	for i, sym := range []string{"_relinkA", "_relinkB"} {
		if libs[i], err = prog.MachODylib(libPath, nil, []string{sym}, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if len(apps[0]) != len(apps[1]) || len(libs[0]) != len(libs[1]) {
		t.Fatalf("image lengths differ: apps %d/%d, dylibs %d/%d", len(apps[0]), len(apps[1]), len(libs[0]), len(libs[1]))
	}
	probe := kernel.Entry(func(th *kernel.Thread) {
		im, _ := dyld.ImagesFor(th.Task())
		status := 33
		for i, sym := range []string{"_relinkA", "_relinkB"} {
			if im != nil {
				if _, ok := im.Resolve(sym); ok {
					status = 11 * (i + 1)
				}
			}
		}
		th.Syscall(kernel.SysExit, &kernel.SyscallArgs{I: [6]uint64{uint64(status)}})
	})
	if err := sys.InstallIOSBinary("/bin/relink-probe", "relink.probe", []string{libPath}, probe); err != nil {
		t.Fatal(err)
	}

	var got []int
	body := kernel.Entry(func(th *kernel.Thread) {
		c := posix.New(persona.Android, th)
		write := func(path string, b []byte, truncate bool) {
			open := c.OpenCreate
			if truncate {
				open = c.Creat
			}
			fd, errno := open(path)
			if errno != kernel.OK {
				t.Errorf("open %s: %v", path, errno)
				return
			}
			c.Write(fd, b)
			c.Close(fd)
		}
		run := func(path string) {
			pid := c.Fork(func(cc posix.Libc) {
				cc.Exec(path, nil)
				cc.Exit(127)
			})
			_, status, errno := c.Wait(pid)
			if errno != kernel.OK {
				t.Errorf("wait for %s: %v", path, errno)
			}
			got = append(got, status)
		}
		for _, i := range []int{0, 1, 0} {
			truncate := len(got) < 4
			write(appPath, apps[i], truncate)
			run(appPath)
			write(libPath, libs[i], truncate)
			run("/bin/relink-probe")
		}
	})
	if err := sys.InstallStaticAndroidBinary("/bin/relink", "relink", body); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Start("/bin/relink", nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{11, 11, 22, 22, 11, 11}
	if len(got) != len(want) {
		t.Fatalf("ran %d execs, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("exec %d (%s, rewritten %d times) exited %d, want %d", i, []string{"executable", "dylib"}[i%2], i/2, got[i], w)
		}
	}
}
