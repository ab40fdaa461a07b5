package vfs

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCreateLookup(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/etc"); err != nil {
		t.Fatal(err)
	}
	n, err := fs.Create("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	n.SetData([]byte("root:0"))
	got, err := fs.Lookup("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data()) != "root:0" {
		t.Fatalf("data = %q", got.Data())
	}
	if got.Size() != 6 {
		t.Fatalf("size = %d", got.Size())
	}
}

func TestLookupErrors(t *testing.T) {
	fs := New()
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/b/f", []byte("x"))
	if _, err := fs.Lookup("/nope"); err == nil {
		t.Fatal("want ErrNotFound")
	}
	if _, err := fs.Lookup("/a/b/f/deeper"); err == nil {
		t.Fatal("want ErrNotDir traversing through file")
	}
	if _, err := fs.Create("/a/b/f"); err == nil {
		t.Fatal("want ErrExists")
	}
}

func TestMkdirAll(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/System/Library/Frameworks"); err != nil {
		t.Fatal(err)
	}
	n, err := fs.Lookup("/System/Library/Frameworks")
	if err != nil || !n.IsDir() {
		t.Fatalf("lookup: %v, n=%v", err, n)
	}
	// Idempotent.
	if err := fs.MkdirAll("/System/Library/Frameworks"); err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("/file", []byte("x"))
	if err := fs.MkdirAll("/file/sub"); err == nil {
		t.Fatal("MkdirAll through a file should fail")
	}
}

func TestWriteReadFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/var/mobile/Documents/note.txt", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/var/mobile/Documents/note.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi" {
		t.Fatalf("got %q", got)
	}
	// Overwrite truncates.
	fs.WriteFile("/var/mobile/Documents/note.txt", []byte("b"))
	got, _ = fs.ReadFile("/var/mobile/Documents/note.txt")
	if string(got) != "b" {
		t.Fatalf("got %q after overwrite", got)
	}
}

func TestWriteDataGrows(t *testing.T) {
	fs := New()
	n, _ := fs.Create("/f")
	if sz := n.WriteData(10, []byte("abc")); sz != 13 {
		t.Fatalf("size = %d, want 13", sz)
	}
	if n.Data()[0] != 0 || string(n.Data()[10:]) != "abc" {
		t.Fatalf("data = %v", n.Data())
	}
	if sz := n.WriteData(0, []byte("Z")); sz != 13 {
		t.Fatalf("size = %d after overwrite, want 13", sz)
	}
}

func TestWriteFileSharedIsCopyOnWrite(t *testing.T) {
	img := []byte("image")
	a, b := New(), New()
	for _, fs := range []*FS{a, b} {
		if err := fs.WriteFileShared("/bin/x", img); err != nil {
			t.Fatal(err)
		}
	}
	na, _ := a.Lookup("/bin/x")
	nb, _ := b.Lookup("/bin/x")
	if &na.Data()[0] != &img[0] || &nb.Data()[0] != &img[0] {
		t.Fatal("WriteFileShared copied the caller's bytes")
	}
	na.WriteData(0, []byte("I"))
	if string(img) != "image" || string(nb.Data()) != "image" {
		t.Fatalf("write reached the shared bytes: img %q, b %q", img, nb.Data())
	}
	if string(na.Data()) != "Image" {
		t.Fatalf("a = %q", na.Data())
	}
	if err := a.WriteFileShared("/bin", img); err == nil {
		t.Fatal("WriteFileShared over a directory succeeded")
	}
}

func TestSymlinks(t *testing.T) {
	fs := New()
	fs.MkdirAll("/data/app")
	fs.WriteFile("/data/app/real.txt", []byte("real"))
	if err := fs.Symlink("/data/app/real.txt", "/link"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/link")
	if err != nil || string(got) != "real" {
		t.Fatalf("via symlink: %q, %v", got, err)
	}
	// Relative symlink.
	fs.Symlink("real.txt", "/data/app/rel")
	got, err = fs.ReadFile("/data/app/rel")
	if err != nil || string(got) != "real" {
		t.Fatalf("via relative symlink: %q, %v", got, err)
	}
	// Lstat does not follow.
	n, err := fs.Lstat("/link")
	if err != nil || n.Kind() != KindSymlink {
		t.Fatalf("lstat: %v %v", n, err)
	}
	if n.Target() != "/data/app/real.txt" {
		t.Fatalf("target = %q", n.Target())
	}
	// Symlink in the middle of a path.
	fs.Symlink("/data/app", "/apps")
	got, err = fs.ReadFile("/apps/real.txt")
	if err != nil || string(got) != "real" {
		t.Fatalf("via dir symlink: %q, %v", got, err)
	}
}

func TestSymlinkLoop(t *testing.T) {
	fs := New()
	fs.Symlink("/b", "/a")
	fs.Symlink("/a", "/b")
	if _, err := fs.Lookup("/a"); err == nil {
		t.Fatal("want ErrLoop")
	}
	if _, ok := func() (any, bool) {
		_, err := fs.Lookup("/a")
		e, ok := err.(*ErrLoop)
		return e, ok
	}(); !ok {
		t.Fatal("error should be *ErrLoop")
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", nil)
	if err := fs.Remove("/d"); err == nil {
		t.Fatal("removing non-empty dir should fail")
	}
	if err := fs.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err == nil {
		t.Fatal("double remove should fail")
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New()
	fs.MkdirAll("/dir")
	for _, name := range []string{"zeta", "alpha", "mid"} {
		fs.WriteFile("/dir/"+name, nil)
	}
	ents, err := fs.ReadDir("/dir")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestRename(t *testing.T) {
	fs := New()
	fs.WriteFile("/old", []byte("data"))
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup("/old"); err == nil {
		t.Fatal("old path still exists")
	}
	got, err := fs.ReadFile("/new")
	if err != nil || string(got) != "data" {
		t.Fatalf("new path: %q %v", got, err)
	}
}

type fakeDev string

func (d fakeDev) DevName() string { return string(d) }

func TestDeviceNodes(t *testing.T) {
	fs := New()
	fs.MkdirAll("/dev")
	if err := fs.Mknod("/dev/fb0", fakeDev("fb0")); err != nil {
		t.Fatal(err)
	}
	n, err := fs.Lookup("/dev/fb0")
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind() != KindDevice || n.Dev().DevName() != "fb0" {
		t.Fatalf("device node wrong: %v", n)
	}
}

func TestMount(t *testing.T) {
	rootfs := New()
	rootfs.MkdirAll("/mnt/ios")
	iosfs := New()
	iosfs.WriteFile("/usr/lib/libSystem.dylib", []byte("MACHO"))
	if err := rootfs.Mount("/mnt/ios", iosfs); err != nil {
		t.Fatal(err)
	}
	got, err := rootfs.ReadFile("/mnt/ios/usr/lib/libSystem.dylib")
	if err != nil || string(got) != "MACHO" {
		t.Fatalf("through mount: %q %v", got, err)
	}
	// Mount root listing.
	ents, err := rootfs.ReadDir("/mnt/ios")
	if err != nil || len(ents) != 1 || ents[0].Name() != "usr" {
		t.Fatalf("mount root listing: %v %v", ents, err)
	}
}

func TestOverlayLookupPrecedence(t *testing.T) {
	lower, upper := New(), New()
	lower.WriteFile("/etc/hosts", []byte("android"))
	lower.WriteFile("/only-lower", []byte("L"))
	upper.WriteFile("/etc/hosts", []byte("ios"))
	upper.WriteFile("/only-upper", []byte("U"))
	o := NewOverlay(upper, lower)
	for p, want := range map[string]string{
		"/etc/hosts": "ios", "/only-lower": "L", "/only-upper": "U",
	} {
		got, err := o.ReadFile(p)
		if err != nil || string(got) != want {
			t.Fatalf("%s = %q (%v), want %q", p, got, err, want)
		}
	}
}

func TestOverlayWritesGoUp(t *testing.T) {
	lower, upper := New(), New()
	lower.MkdirAll("/data")
	o := NewOverlay(upper, lower)
	if _, err := o.Create("/data/new.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := upper.Lookup("/data/new.txt"); err != nil {
		t.Fatal("file should be in upper layer")
	}
	if _, err := lower.Lookup("/data/new.txt"); err == nil {
		t.Fatal("file should not be in lower layer")
	}
}

func TestOverlayReadDirUnion(t *testing.T) {
	lower, upper := New(), New()
	lower.MkdirAll("/usr/lib")
	lower.WriteFile("/usr/lib/libc.so", nil)
	lower.WriteFile("/usr/lib/libm.so", nil)
	upper.MkdirAll("/usr/lib")
	upper.WriteFile("/usr/lib/libSystem.dylib", nil)
	upper.WriteFile("/usr/lib/libc.so", []byte("shadow"))
	o := NewOverlay(upper, lower)
	ents, err := o.ReadDir("/usr/lib")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("union has %d entries, want 3", len(ents))
	}
	// The shadowing upper libc.so must win.
	for _, e := range ents {
		if e.Name() == "libc.so" && string(e.Data()) != "shadow" {
			t.Fatal("lower libc.so not shadowed")
		}
	}
}

func TestOverlayRemoveLowerRejected(t *testing.T) {
	lower, upper := New(), New()
	lower.WriteFile("/system/build.prop", nil)
	o := NewOverlay(upper, lower)
	if err := o.Remove("/system/build.prop"); err == nil {
		t.Fatal("removing lower-layer file should fail")
	}
	upper.WriteFile("/tmp/x", nil)
	if err := o.Remove("/tmp/x"); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayRenameCopiesUp(t *testing.T) {
	lower, upper := New(), New()
	lower.WriteFile("/doc.txt", []byte("content"))
	o := NewOverlay(upper, lower)
	if err := o.Rename("/doc.txt", "/renamed.txt"); err != nil {
		t.Fatal(err)
	}
	got, err := o.ReadFile("/renamed.txt")
	if err != nil || string(got) != "content" {
		t.Fatalf("renamed: %q %v", got, err)
	}
}

func TestCleanAndSplit(t *testing.T) {
	if Clean("a/b/../c") != "/a/c" {
		t.Fatalf("Clean = %q", Clean("a/b/../c"))
	}
	d, l := Split("/a/b/c")
	if d != "/a/b" || l != "c" {
		t.Fatalf("Split = %q %q", d, l)
	}
}

func TestPropertyWriteFileRoundTrip(t *testing.T) {
	fs := New()
	f := func(name uint8, data []byte) bool {
		p := "/prop/" + string(rune('a'+name%26))
		if err := fs.WriteFile(p, data); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
