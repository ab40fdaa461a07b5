package core

import (
	"bytes"
	"testing"

	"repro/internal/dyld"
	"repro/internal/prog"
	"repro/internal/services"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// daemonPaths are the service executables the iOS template installs.
var daemonPaths = []string{
	services.LaunchdPath, services.ConfigdPath, services.NotifydPath,
	services.SyslogdPath, services.CrashReporterPath,
}

func bootT(t *testing.T, cfg Config, opts ...Options) *System {
	t.Helper()
	sys, err := NewSystem(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func fileData(t *testing.T, fs *vfs.FS, path string) []byte {
	t.Helper()
	n, err := fs.Lookup(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(n.Data()) == 0 {
		t.Fatalf("%s is empty", path)
	}
	return n.Data()
}

// TestBootsShareTemplateImages pins the boot-invariant images to one copy
// per process: every shared-cache boot sees the same manifest bytes, and
// every iOS boot the same daemon executables.
func TestBootsShareTemplateImages(t *testing.T) {
	on := true
	first := bootT(t, ConfigIPad).IOSFS
	cached := []*System{bootT(t, ConfigIPad), bootT(t, ConfigCider, Options{SharedCache: &on})}
	for _, sys := range cached {
		if a, b := fileData(t, first, dyld.SharedCachePath), fileData(t, sys.IOSFS, dyld.SharedCachePath); &a[0] != &b[0] {
			t.Errorf("%s: shared-cache manifest is a private copy", sys.Config)
		}
	}
	cider := bootT(t, ConfigCider)
	if _, err := cider.IOSFS.Lookup(dyld.SharedCachePath); err == nil {
		t.Error("Cider's default image has a shared cache; the prototype does not support one")
	}
	for _, sys := range append(cached, cider) {
		for _, p := range daemonPaths {
			if a, b := fileData(t, first, p), fileData(t, sys.IOSFS, p); &a[0] != &b[0] {
				t.Errorf("%s: %s is a private copy", sys.Config, p)
			}
		}
	}
}

// TestTemplateWritesStayPrivate writes garbage into shared bytes through
// one System: neither a sibling System nor a later boot may see it.
func TestTemplateWritesStayPrivate(t *testing.T) {
	paths := []string{dyld.SharedCachePath, services.LaunchdPath}
	a, b := bootT(t, ConfigIPad), bootT(t, ConfigIPad)
	want := make(map[string][]byte)
	for _, p := range paths {
		want[p] = append([]byte(nil), fileData(t, b.IOSFS, p)...)
		n, _ := a.IOSFS.Lookup(p)
		n.WriteData(0, []byte("garbage"))
		if bytes.Equal(n.Data(), want[p]) {
			t.Fatalf("%s: write did not land", p)
		}
	}
	later := bootT(t, ConfigIPad)
	for _, p := range paths {
		for _, sys := range []*System{b, later} {
			if !bytes.Equal(fileData(t, sys.IOSFS, p), want[p]) {
				t.Errorf("%s written through another System changed", p)
			}
		}
		if &fileData(t, b.IOSFS, p)[0] != &fileData(t, later.IOSFS, p)[0] {
			t.Errorf("%s: a write through one System stopped later boots sharing it", p)
		}
	}
}

// TestCorruptManifestFallsBackToWalk overwrites an iPad's manifest in
// place after a first exec has attached it. The next exec must decode the
// new bytes, fail, and load every library by walking the filesystem —
// not reuse the decoded manifest cached under the old bytes' identity.
func TestCorruptManifestFallsBackToWalk(t *testing.T) {
	sys := bootT(t, ConfigIPad, Options{Trace: true})
	images := 0
	if err := sys.InstallIOSBinary("/bin/probe", "boot-test-probe", nil, func(c *prog.Call) uint64 {
		images++
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	exec := func() {
		t.Helper()
		if _, err := sys.Start("/bin/probe", nil); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	exec()
	if got := sys.Trace.Counter(trace.CounterDyldCacheAttach); got != 1 {
		t.Fatalf("first exec: %d cache attaches, want 1", got)
	}
	n, _ := sys.IOSFS.Lookup(dyld.SharedCachePath)
	n.WriteData(0, []byte("garbage"))
	loaded := sys.Trace.Counter(trace.CounterDyldImages)
	exec()
	if images != 2 {
		t.Fatalf("probe ran %d times, want 2", images)
	}
	if got := sys.Trace.Counter(trace.CounterDyldCacheAttach); got != 1 {
		t.Fatalf("exec after corruption attached the cache (%d attaches)", got)
	}
	if got := sys.Trace.Counter(trace.CounterDyldImages) - loaded; got != uint64(len(IOSDylibs())) {
		t.Fatalf("filesystem walk loaded %d images, want %d", got, len(IOSDylibs()))
	}
}

// BenchmarkBoot measures NewSystem per configuration once the filesystem
// templates exist (the first boot of a process also builds them).
func BenchmarkBoot(b *testing.B) {
	for _, cfg := range []Config{ConfigVanilla, ConfigCider, ConfigIPad} {
		b.Run(cfg.String(), func(b *testing.B) {
			if _, err := NewSystem(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sys.Close()
			}
		})
	}
}
