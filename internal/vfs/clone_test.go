package vfs

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// listing renders a whole tree, depth first in name order, one line per
// node: path, kind, symlink target and file bytes.
func listing(t *testing.T, fs *FS) string {
	t.Helper()
	var b strings.Builder
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", dir, err)
		}
		for _, e := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name()
			fmt.Fprintf(&b, "%s %s %q %q\n", p, e.Kind(), e.Target(), e.Data())
			if e.IsDir() {
				walk(p)
			}
		}
	}
	walk("/")
	return b.String()
}

// cloneSource builds the template TestCloneIsolation clones: directories
// with several entries each, so that in a clone's edge slab every
// directory's entries are followed by another directory's.
func cloneSource(t *testing.T) *FS {
	t.Helper()
	fs := New()
	for _, p := range []string{"/a/x", "/a/y", "/b/z", "/c/d/e"} {
		if err := fs.MkdirAll(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/a/x/f1", "/a/x/f2", "/b/z/g", "/c/d/e/h", "/top"} {
		if err := fs.WriteFile(p, []byte("contents of "+p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Symlink("/a/x/f1", "/b/link"); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestCloneIsolation mutates one clone of a frozen template in every way
// the FileSystem interface and the node-level write path allow. The clone
// must end up exactly like an uncloned tree given the same operations,
// and neither the template nor a sibling clone may see any of it. The
// inserts at the end of a directory's entries (/zz at the root, /a/w) are
// the ones a slab without clipped capacities would write into the next
// directory's entries.
func TestCloneIsolation(t *testing.T) {
	tmpl := cloneSource(t)
	tmpl.Freeze()
	want := listing(t, tmpl)
	a, b := tmpl.Clone(), tmpl.Clone()
	ref := cloneSource(t)

	ops := []struct {
		name string
		do   func(fs *FS) error
	}{
		{"create at root end", func(fs *FS) error { _, err := fs.Create("/zz"); return err }},
		{"create at root front", func(fs *FS) error { _, err := fs.Create("/0"); return err }},
		{"mkdir at end", func(fs *FS) error { return fs.Mkdir("/a/w") }},
		{"mkdir in middle", func(fs *FS) error { return fs.Mkdir("/b/m") }},
		{"create in deep dir", func(fs *FS) error { _, err := fs.Create("/c/d/e/i"); return err }},
		{"remove file", func(fs *FS) error { return fs.Remove("/a/x/f1") }},
		{"remove empty dir", func(fs *FS) error { return fs.Remove("/a/y") }},
		{"rename across dirs", func(fs *FS) error { return fs.Rename("/b/z", "/c/z") }},
		{"rename within dir", func(fs *FS) error { return fs.Rename("/a/x/f2", "/a/x/f0") }},
		{"symlink", func(fs *FS) error { return fs.Symlink("/top", "/c/d/top") }},
		{"write shared bytes", func(fs *FS) error {
			n, err := fs.Lookup("/c/d/e/h")
			if err == nil {
				n.WriteData(0, []byte("garbage"))
			}
			return err
		}},
		{"truncate", func(fs *FS) error {
			n, err := fs.Lookup("/top")
			if err == nil {
				n.SetData(nil)
			}
			return err
		}},
		{"writefile", func(fs *FS) error { return fs.WriteFile("/a/x/new", []byte("new")) }},
	}
	for _, op := range ops {
		if err := op.do(a); err != nil {
			t.Fatalf("%s on the clone: %v", op.name, err)
		}
		if err := op.do(ref); err != nil {
			t.Fatalf("%s on the reference: %v", op.name, err)
		}
		if got, exp := listing(t, a), listing(t, ref); got != exp {
			t.Fatalf("after %s the clone reads\n%s\nwant\n%s", op.name, got, exp)
		}
		if got := listing(t, tmpl); got != want {
			t.Fatalf("after %s on a clone the template reads\n%s\nwant\n%s", op.name, got, want)
		}
		if got := listing(t, b); got != want {
			t.Fatalf("after %s on a clone its sibling reads\n%s\nwant\n%s", op.name, got, want)
		}
	}
}

// pathModel is the reference TestFSMatchesPathModel checks FS against: a
// flat map from clean absolute path to kind, with the root implicit. It
// shares no code with FS. Every symlink it holds dangles (see
// danglingTarget), so following one always fails with not-found.
type pathModel map[string]Kind

const danglingTarget = "/nowhere"

// errClass names an error's type for comparison ("" for nil).
func errClass(err error) string {
	switch err.(type) {
	case nil:
		return ""
	case *ErrNotFound:
		return "not-found"
	case *ErrNotDir:
		return "not-dir"
	case *ErrExists:
		return "exists"
	case *ErrIsDir:
		return "is-dir"
	case *ErrNotEmpty:
		return "not-empty"
	}
	return fmt.Sprintf("%T", err)
}

func parentPath(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/"
	}
	return p[:i]
}

// resolve walks p component by component: a non-directory in the middle
// is not-dir, a missing component not-found, and a followed symlink
// not-found because every target dangles.
func (m pathModel) resolve(p string, followLast bool) (Kind, string) {
	if p == "/" {
		return KindDir, ""
	}
	kind := KindDir
	parts := strings.Split(p[1:], "/")
	for i := range parts {
		if kind != KindDir {
			return 0, "not-dir"
		}
		k, ok := m["/"+strings.Join(parts[:i+1], "/")]
		if !ok {
			return 0, "not-found"
		}
		if k == KindSymlink && (followLast || i < len(parts)-1) {
			return 0, "not-found"
		}
		kind = k
	}
	return kind, ""
}

// parent checks that p's parent resolves to a directory.
func (m pathModel) parent(p string) string {
	k, err := m.resolve(parentPath(p), true)
	if err == "" && k != KindDir {
		return "not-dir"
	}
	return err
}

func (m pathModel) add(p string, k Kind) string {
	if err := m.parent(p); err != "" {
		return err
	}
	if _, ok := m[p]; ok {
		return "exists"
	}
	m[p] = k
	return ""
}

// subtree returns p and every path below it, sorted.
func (m pathModel) subtree(p string) []string {
	var out []string
	for q := range m {
		if q == p || strings.HasPrefix(q, p+"/") {
			out = append(out, q)
		}
	}
	sort.Strings(out)
	return out
}

func (m pathModel) remove(p string) string {
	if err := m.parent(p); err != "" {
		return err
	}
	if _, ok := m[p]; !ok {
		return "not-found"
	}
	if len(m.subtree(p)) > 1 {
		return "not-empty"
	}
	delete(m, p)
	return ""
}

// rename moves oldp's subtree to newp, dropping whatever newp held.
func (m pathModel) rename(oldp, newp string) string {
	if err := m.parent(oldp); err != "" {
		return err
	}
	if _, ok := m[oldp]; !ok {
		return "not-found"
	}
	if err := m.parent(newp); err != "" {
		return err
	}
	moved := map[string]Kind{}
	for _, q := range m.subtree(oldp) {
		moved[newp+strings.TrimPrefix(q, oldp)] = m[q]
		delete(m, q)
	}
	for _, q := range m.subtree(newp) {
		delete(m, q)
	}
	for q, k := range moved {
		m[q] = k
	}
	return ""
}

func (m pathModel) mkdirAll(p string) string {
	if p == "/" {
		return ""
	}
	parts := strings.Split(p[1:], "/")
	for i := range parts {
		q := "/" + strings.Join(parts[:i+1], "/")
		switch k, ok := m[q]; {
		case !ok:
			m[q] = KindDir
		case k == KindSymlink:
			return "exists" // the dangling link resolves to nothing, and Mkdir finds the name taken
		case k != KindDir:
			return "not-dir"
		}
	}
	return ""
}

func (m pathModel) writeFile(p string) string {
	if err := m.mkdirAll(parentPath(p)); err != "" {
		return err
	}
	switch k, ok := m[p]; {
	case !ok:
		m[p] = KindFile
	case k == KindDir:
		return "is-dir"
	case k == KindSymlink:
		return "exists"
	}
	return ""
}

// children returns the names directly under dir, sorted.
func (m pathModel) children(dir string) []string {
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var out []string
	for q := range m {
		if rest, ok := strings.CutPrefix(q, prefix); ok && !strings.Contains(rest, "/") {
			out = append(out, rest)
		}
	}
	sort.Strings(out)
	return out
}

// TestFSMatchesPathModel runs seeded random operation sequences against
// FS and pathModel side by side. After every step, every path over a
// small name pool must give the same Lookup and Lstat outcome (error
// class and kind) and the same ReadDir names in the same order. Renames
// of a directory into itself are never generated: FS makes such a
// subtree unreachable, which the flat model cannot express.
func TestFSMatchesPathModel(t *testing.T) {
	names := []string{"a", "b", "c"}
	var universe []string
	var grow func(prefix string, depth int)
	grow = func(prefix string, depth int) {
		if depth == 0 {
			return
		}
		for _, n := range names {
			p := prefix + "/" + n
			universe = append(universe, p)
			grow(p, depth-1)
		}
	}
	grow("", 3)
	dirs := append([]string{"/"}, universe...)

	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs, m := New(), pathModel{}
		pick := func() string { return universe[rng.Intn(len(universe))] }
		for step := 0; step < 150; step++ {
			var desc, got, want string
			switch p := pick(); rng.Intn(8) {
			case 0:
				desc = "Mkdir " + p
				got, want = errClass(fs.Mkdir(p)), m.add(p, KindDir)
			case 1:
				desc = "Create " + p
				_, err := fs.Create(p)
				got, want = errClass(err), m.add(p, KindFile)
			case 2:
				desc = "Symlink " + p
				got, want = errClass(fs.Symlink(danglingTarget, p)), m.add(p, KindSymlink)
			case 3:
				desc = "Mknod " + p
				got, want = errClass(fs.Mknod(p, nil)), m.add(p, KindDevice)
			case 4:
				desc = "Remove " + p
				got, want = errClass(fs.Remove(p)), m.remove(p)
			case 5:
				q := pick()
				if q == p || strings.HasPrefix(q, p+"/") {
					continue
				}
				desc = "Rename " + p + " " + q
				got, want = errClass(fs.Rename(p, q)), m.rename(p, q)
			case 6:
				desc = "MkdirAll " + p
				got, want = errClass(fs.MkdirAll(p)), m.mkdirAll(p)
			case 7:
				desc = "WriteFile " + p
				got, want = errClass(fs.WriteFile(p, []byte(p))), m.writeFile(p)
			}
			if got != want {
				t.Fatalf("seed %d step %d: %s: error %q, model %q", seed, step, desc, got, want)
			}
			for _, p := range dirs {
				n, err := fs.Lookup(p)
				k, merr := m.resolve(p, true)
				if errClass(err) != merr || (err == nil && n.Kind() != k) {
					t.Fatalf("seed %d after %s: Lookup(%s) = %v, %v; model %v, %q", seed, desc, p, n, err, k, merr)
				}
				n, err = fs.Lstat(p)
				k, merr = m.resolve(p, false)
				if errClass(err) != merr || (err == nil && n.Kind() != k) {
					t.Fatalf("seed %d after %s: Lstat(%s) = %v, %v; model %v, %q", seed, desc, p, n, err, k, merr)
				}
				ents, err := fs.ReadDir(p)
				k, merr = m.resolve(p, true)
				if merr == "" && k != KindDir {
					merr = "not-dir"
				}
				if errClass(err) != merr {
					t.Fatalf("seed %d after %s: ReadDir(%s) error %v; model %q", seed, desc, p, err, merr)
				}
				if err != nil {
					continue
				}
				var gotNames []string
				for _, e := range ents {
					gotNames = append(gotNames, e.Name())
				}
				if g, w := strings.Join(gotNames, ","), strings.Join(m.children(p), ","); g != w {
					t.Fatalf("seed %d after %s: ReadDir(%s) = [%s]; model [%s]", seed, desc, p, g, w)
				}
			}
		}
	}
}
