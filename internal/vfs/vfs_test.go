package vfs

import (
	"bytes"
	"errors"
	"strings"
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

// TestWriteDataAppendKeepsSnapshots appends through two clones of a
// frozen template, in place and past spare capacity: the template's bytes
// (spare capacity included) must never be written, so neither clone sees
// the other's appends, and a slice taken from Data() before an append must
// keep its length and bytes, whether or not the append reallocated.
func TestWriteDataAppendKeepsSnapshots(t *testing.T) {
	// The template's bytes come with spare capacity, which an append in
	// place would reach.
	img := make([]byte, 4, 64)
	copy(img, "head")
	tmpl := New()
	if err := tmpl.WriteFileShared("/log", img); err != nil {
		t.Fatal(err)
	}
	tmpl.Freeze()
	tn, _ := tmpl.Lookup("/log")
	var nodes [2]*Node
	want := [2]string{"head", "head"}
	for i := range nodes {
		nodes[i], _ = tmpl.Clone().Lookup("/log")
	}
	for i := 0; i < 64; i++ {
		c := i % 2
		n := nodes[c]
		before := n.Data()
		snap := string(before)
		line := []byte{'a' + byte(i%26), byte('0' + c)}
		if sz := n.WriteData(n.Size(), line); sz != int64(len(want[c])+2) {
			t.Fatalf("append %d: size %d, want %d", i, sz, len(want[c])+2)
		}
		want[c] += string(line)
		if len(before) != len(snap) || string(before) != snap {
			t.Fatalf("append %d changed an earlier Data() slice: %q, was %q", i, before, snap)
		}
		// Appending to a snapshot must not reach the file's spare capacity.
		_ = append(before, 'X')
		for j, n := range nodes {
			if string(n.Data()) != want[j] {
				t.Fatalf("append %d: clone %d holds %q, want %q", i, j, n.Data(), want[j])
			}
		}
	}
	if string(tn.Data()) != "head" || !bytes.Equal(img[4:cap(img)], make([]byte, cap(img)-4)) {
		t.Fatalf("appends through a clone reached the template: %q", img[:cap(img)])
	}
	// A sparse write past the end of a grown file reads its gap as zeros.
	n := nodes[0]
	end := n.Size()
	n.WriteData(end+3, []byte("z"))
	if got := n.Data()[end:]; !bytes.Equal(got, []byte{0, 0, 0, 'z'}) {
		t.Fatalf("sparse append gap = %q", got)
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

// TestOverlayReadDirMergeOrder interleaves the two layers' names: the
// union must come out in name order, each shadowed name once, from upper.
func TestOverlayReadDirMergeOrder(t *testing.T) {
	lower, upper := New(), New()
	for _, n := range []string{"a", "b", "c", "e", "f"} {
		lower.WriteFile("/d/"+n, []byte("lower"))
	}
	for _, n := range []string{"b", "d", "e"} {
		upper.WriteFile("/d/"+n, []byte("upper"))
	}
	ents, err := NewOverlay(upper, lower).ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name()+"="+string(e.Data()))
	}
	want := "a=lower b=upper c=lower d=upper e=upper f=lower"
	if g := strings.Join(got, " "); g != want {
		t.Fatalf("union = %s, want %s", g, want)
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

// TestOverlayMkdir: a directory the lower layer already has is an
// *ErrExists, and a new directory under a lower-only parent copies the
// parent up, leaving the lower layer untouched.
func TestOverlayMkdir(t *testing.T) {
	lower, upper := New(), New()
	lower.MkdirAll("/system/app")
	o := NewOverlay(upper, lower)
	var exists *ErrExists
	if err := o.Mkdir("/system/app"); !errors.As(err, &exists) {
		t.Fatalf("Mkdir of a lower-layer directory = %v, want *ErrExists", err)
	}
	if err := o.Mkdir("/system/app/Cider"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/system/app", "/system/app/Cider"} {
		if n, err := upper.Lookup(p); err != nil || !n.IsDir() {
			t.Fatalf("upper %s: %v, want a directory", p, err)
		}
	}
	if _, err := lower.Lookup("/system/app/Cider"); err == nil {
		t.Fatal("new directory should not be in the lower layer")
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

// TestStampTracksStructure pins Stamp's generation: every structural
// change moves it, a byte rewrite does not, a FaultHook makes the tree
// impure, and an overlay moves with either layer.
func TestStampTracksStructure(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/usr/lib"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/usr/lib/a", []byte("a")); err != nil {
		t.Fatal(err)
	}
	other := New()
	for _, c := range []struct {
		name   string
		change func() error
		bump   bool
	}{
		// Adding a name moves no resolved path in a plain tree.
		{"create", func() error { _, err := fs.Create("/usr/lib/b"); return err }, false},
		{"mkdir", func() error { return fs.Mkdir("/usr/lib/d") }, false},
		{"symlink", func() error { return fs.Symlink("/usr/lib/a", "/usr/lib/s") }, false},
		{"mknod", func() error { return fs.Mknod("/usr/lib/n", nil) }, false},
		{"write new file", func() error { return fs.WriteFile("/usr/lib/w", []byte("w")) }, false},
		{"rename", func() error { return fs.Rename("/usr/lib/b", "/usr/lib/c") }, true},
		{"remove", func() error { return fs.Remove("/usr/lib/c") }, true},
		{"mount", func() error { return fs.Mount("/usr/lib/d", other) }, true},
		// Rewriting an existing file keeps its node.
		{"write file", func() error { return fs.WriteFile("/usr/lib/a", []byte("A")) }, false},
		{"write file shared", func() error { return fs.WriteFileShared("/usr/lib/a", []byte("B")) }, false},
	} {
		before, _ := fs.Stamp()
		if err := c.change(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if after, _ := fs.Stamp(); (after != before) != c.bump {
			t.Errorf("%s moved the generation %d -> %d, want a move: %v", c.name, before, after, c.bump)
		}
	}

	gen, pure := fs.Stamp()
	n, err, plain := fs.LookupPlain("/usr/lib/a")
	if err != nil || !plain || !pure {
		t.Fatalf("LookupPlain(/usr/lib/a) = %v, plain %v (pure %v), want a plain hit", err, plain, pure)
	}
	n.SetData([]byte("rewritten"))
	n.WriteData(0, []byte("R"))
	if g, _ := fs.Stamp(); g != gen {
		t.Error("rewriting a node's bytes moved the generation")
	}
	if _, err, plain := fs.LookupPlain("/usr/lib/s"); err != nil || plain {
		t.Errorf("LookupPlain through a symlink: %v, plain %v, want a hit that is not plain", err, plain)
	}
	if _, err, plain := fs.LookupPlain("/usr/lib/d/x"); plain {
		t.Errorf("LookupPlain across a mount point: %v, plain %v, want not plain", err, plain)
	}
	fs.FaultHook = func(op, p string) error { return nil }
	if _, pure := fs.Stamp(); pure {
		t.Error("a hooked tree stamps pure")
	}
	if _, _, plain := fs.LookupPlain("/usr/lib/a"); plain {
		t.Error("a hooked lookup is plain")
	}
	fs.FaultHook = nil

	lower := New()
	o := NewOverlay(fs, lower)
	for _, f := range []string{"/low/f", "/low/k"} {
		if err := lower.WriteFile(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		change func() error
		bump   bool
	}{
		{"lower create", func() error { _, err := lower.Create("/low/g"); return err }, false},
		{"upper create", func() error { _, err := o.Create("/up"); return err }, false},
		// An upper name over a lower node moves the overlay's resolution
		// of every path through it, added through the overlay or not.
		{"upper mkdir shadowing a lower dir", func() error { return o.Upper().MkdirAll("/low") }, true},
		{"upper write shadowing a lower file", func() error { return o.WriteFile("/low/f", nil) }, true},
		// A parent reached through an upper symlink: the add's path does
		// not say where it went, so it counts.
		{"upper create behind a symlink", func() error {
			if err := o.Symlink("/low", "/alias"); err != nil {
				return err
			}
			_, err := o.Create("/alias/h")
			return err
		}, true},
		{"lower remove", func() error { return lower.Remove("/low/g") }, true},
	} {
		before, _ := o.Stamp()
		if err := c.change(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if after, _ := o.Stamp(); (after != before) != c.bump {
			t.Errorf("%s moved the overlay generation %d -> %d, want a move: %v", c.name, before, after, c.bump)
		}
	}
	if _, err, plain := o.LookupPlain("/low/k"); err != nil || !plain {
		t.Errorf("overlay LookupPlain of a lower file: %v, plain %v, want a plain hit", err, plain)
	}
	lower.FaultHook = func(op, p string) error { return nil }
	if _, pure := o.Stamp(); pure {
		t.Error("an overlay with a hooked layer stamps pure")
	}
}
