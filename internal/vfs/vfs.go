// Package vfs implements the simulated filesystem layer: an in-memory
// hierarchical filesystem, device nodes, symlinks, mount points, and the
// overlay filesystem Cider uses to present the iOS hierarchy (/Documents,
// /System/Library, /usr/lib, ...) on top of the Android filesystem
// (Section 3 of the paper).
//
// vfs is a pure data structure: I/O *cost* (flash latency/bandwidth) is
// charged by the kernel file-descriptor layer using internal/hw's
// StorageModel, so the same tree can serve both device profiles.
package vfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
)

// Kind discriminates node types.
type Kind int

const (
	// KindFile is a regular file.
	KindFile Kind = iota
	// KindDir is a directory.
	KindDir
	// KindSymlink is a symbolic link.
	KindSymlink
	// KindDevice is a device node (bridged to the kernel device framework).
	KindDevice
)

func (k Kind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	case KindSymlink:
		return "symlink"
	case KindDevice:
		return "device"
	}
	return "unknown"
}

// Device is the hook vfs uses to reference kernel device objects without
// depending on the kernel package. The kernel's device framework implements
// it and type-asserts back on open.
type Device interface {
	// DevName returns the canonical device name (e.g. "fb0", "input0").
	DevName() string
}

// ErrNotFound reports a missing path component.
type ErrNotFound struct{ Path string }

func (e *ErrNotFound) Error() string {
	return fmt.Sprintf("vfs: %s: no such file or directory", e.Path)
}

// ErrExists reports a create over an existing node.
type ErrExists struct{ Path string }

func (e *ErrExists) Error() string { return fmt.Sprintf("vfs: %s: file exists", e.Path) }

// ErrNotDir reports traversal through a non-directory.
type ErrNotDir struct{ Path string }

func (e *ErrNotDir) Error() string { return fmt.Sprintf("vfs: %s: not a directory", e.Path) }

// ErrIsDir reports a file operation on a directory.
type ErrIsDir struct{ Path string }

func (e *ErrIsDir) Error() string { return fmt.Sprintf("vfs: %s: is a directory", e.Path) }

// ErrNotEmpty reports removal of a non-empty directory.
type ErrNotEmpty struct{ Path string }

func (e *ErrNotEmpty) Error() string { return fmt.Sprintf("vfs: %s: directory not empty", e.Path) }

// ErrLoop reports too many levels of symbolic links.
type ErrLoop struct{ Path string }

func (e *ErrLoop) Error() string {
	return fmt.Sprintf("vfs: %s: too many levels of symbolic links", e.Path)
}

// ErrIO reports a simulated media error (fault injection).
type ErrIO struct{ Path string }

func (e *ErrIO) Error() string { return fmt.Sprintf("vfs: %s: input/output error", e.Path) }

// ErrNoSpace reports a simulated full device (fault injection).
type ErrNoSpace struct{ Path string }

func (e *ErrNoSpace) Error() string {
	return fmt.Sprintf("vfs: %s: no space left on device", e.Path)
}

// Node is one filesystem object.
type Node struct {
	name     string
	kind     Kind
	children map[string]*Node
	data     []byte
	// shared marks data as copy-on-write: the slice is owned by a frozen
	// template tree (see FS.Freeze/Clone) or by a WriteFileShared caller
	// and must be replaced, never written in place.
	shared bool
	target string // symlink target
	dev    Device
	// mount, when non-nil, redirects traversal into another filesystem.
	mount FileSystem
}

// Name returns the node's name within its directory.
func (n *Node) Name() string { return n.name }

// Kind returns the node type.
func (n *Node) Kind() Kind { return n.kind }

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.kind == KindDir }

// Size returns the file length in bytes (0 for non-files).
func (n *Node) Size() int64 { return int64(len(n.data)) }

// Data returns the file contents. The slice is the live store; callers that
// mutate must go through SetData/WriteData.
func (n *Node) Data() []byte { return n.data }

// SetData replaces the file contents.
func (n *Node) SetData(b []byte) {
	n.data = b
	n.shared = false
}

// WriteData writes b at offset off, growing the file as needed, and returns
// the new size. Shared (template-owned) contents are copied before the
// first write, so writes through a cloned tree never reach the template.
func (n *Node) WriteData(off int64, b []byte) int64 {
	need := off + int64(len(b))
	if need > int64(len(n.data)) || n.shared {
		size := need
		if int64(len(n.data)) > size {
			size = int64(len(n.data))
		}
		nd := make([]byte, size)
		copy(nd, n.data)
		n.data = nd
		n.shared = false
	}
	copy(n.data[off:], b)
	return int64(len(n.data))
}

// Target returns the symlink target.
func (n *Node) Target() string { return n.target }

// Dev returns the device hook for device nodes.
func (n *Node) Dev() Device { return n.dev }

// FileSystem is the interface the kernel mounts: both the plain FS and the
// Cider overlay implement it.
type FileSystem interface {
	// Lookup resolves path (following symlinks) to a node.
	Lookup(p string) (*Node, error)
	// Create makes a new empty regular file; parents must exist.
	Create(p string) (*Node, error)
	// Mkdir creates a directory; the parent must exist.
	Mkdir(p string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(p string) error
	// Remove unlinks a file or empty directory.
	Remove(p string) error
	// ReadDir lists a directory in name order.
	ReadDir(p string) ([]*Node, error)
	// Symlink creates a symbolic link at p pointing to target.
	Symlink(target, p string) error
	// Mknod creates a device node.
	Mknod(p string, dev Device) error
	// Rename moves oldp to newp.
	Rename(oldp, newp string) error
}

// FS is a plain in-memory filesystem tree.
type FS struct {
	root *Node
	// FaultHook, when non-nil, is consulted before Lookup, Create, and
	// Remove with the operation name ("lookup", "create", "remove") and
	// the cleaned path; a non-nil error fails the operation (fault
	// injection: EIO, ENOSPC, latency spikes charged by the hook).
	FaultHook func(op, path string) error
}

// New creates an empty filesystem with a root directory.
func New() *FS {
	return &FS{root: &Node{name: "/", kind: KindDir, children: map[string]*Node{}}}
}

// Clean canonicalizes a path to an absolute, /-separated form.
func Clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// Split returns the parent directory and leaf name of p.
func Split(p string) (dir, leaf string) {
	p = Clean(p)
	return path.Dir(p), path.Base(p)
}

const maxSymlinks = 16

// pathIsClean reports whether p is already in Clean form: absolute, no
// empty, ".", or ".." components, no trailing slash. Such paths can be
// walked by index without Clean/Split allocations.
//
//hot:noalloc
func pathIsClean(p string) bool {
	if len(p) < 2 || p[0] != '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		seg := p[start:i]
		if len(seg) == 0 || seg == "." || seg == ".." {
			return false
		}
		start = i + 1
	}
	return true
}

// fastWalk resolves an already-clean path through plain directories with no
// allocations: components are substrings of p (a Go map lookup with a
// substring key does not allocate). The moment resolution needs anything
// structural — a symlink, a mount point, or the exact ErrNotDir error text —
// it reports ok=false and the caller retries on the general path. Lookups on
// a booted system are overwhelmingly clean absolute paths to plain files,
// so this is the hot case.
//
//hot:noalloc
func (fs *FS) fastWalk(p string, followLast bool) (n *Node, err error, ok bool) {
	if !pathIsClean(p) {
		return nil, nil, false
	}
	cur := fs.root
	i := 1
	for i <= len(p) {
		j := i
		for j < len(p) && p[j] != '/' {
			j++
		}
		if cur.kind != KindDir {
			return nil, nil, false
		}
		next, found := cur.children[p[i:j]]
		if !found {
			//lint:allow hotalloc: miss path — the error carries the path
			return nil, &ErrNotFound{Path: p}, true
		}
		last := j >= len(p)
		if next.mount != nil || (next.kind == KindSymlink && (followLast || !last)) {
			return nil, nil, false
		}
		cur = next
		i = j + 1
	}
	return cur, nil, true
}

// walk resolves p to a node. If followLast is false, a trailing symlink is
// returned rather than followed (lstat/unlink semantics).
func (fs *FS) walk(p string, followLast bool, depth int) (*Node, error) {
	if depth > maxSymlinks {
		return nil, &ErrLoop{Path: p}
	}
	if n, err, ok := fs.fastWalk(p, followLast); ok {
		return n, err
	}
	p = Clean(p)
	cur := fs.root
	if p == "/" {
		return cur, nil
	}
	parts := strings.Split(p[1:], "/")
	for i, part := range parts {
		if cur.kind != KindDir {
			return nil, &ErrNotDir{Path: strings.Join(parts[:i], "/")}
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, &ErrNotFound{Path: p}
		}
		last := i == len(parts)-1
		// Descend through mount points.
		if next.mount != nil {
			rest := strings.Join(parts[i+1:], "/")
			if rest == "" {
				rest = "/"
			}
			if last && !followLast {
				return next.mount.Lookup("/")
			}
			return next.mount.Lookup(rest)
		}
		if next.kind == KindSymlink && (followLast || !last) {
			tgt := next.target
			if !strings.HasPrefix(tgt, "/") {
				tgt = path.Join("/"+strings.Join(parts[:i], "/"), tgt)
			}
			if !last {
				tgt = path.Join(tgt, strings.Join(parts[i+1:], "/"))
			}
			return fs.walk(tgt, followLast, depth+1)
		}
		cur = next
	}
	return cur, nil
}

// Lookup resolves p, following symlinks.
func (fs *FS) Lookup(p string) (*Node, error) {
	if fs.FaultHook != nil {
		if err := fs.FaultHook("lookup", Clean(p)); err != nil {
			return nil, err
		}
	}
	return fs.walk(p, true, 0)
}

// Lstat resolves p without following a final symlink.
func (fs *FS) Lstat(p string) (*Node, error) {
	return fs.walk(p, false, 0)
}

// parentOf resolves the directory that should contain p's leaf.
func (fs *FS) parentOf(p string) (*Node, string, error) {
	dir, leaf := Split(p)
	if leaf == "/" {
		return nil, "", &ErrExists{Path: "/"}
	}
	d, err := fs.walk(dir, true, 0)
	if err != nil {
		return nil, "", err
	}
	if d.kind != KindDir {
		return nil, "", &ErrNotDir{Path: dir}
	}
	return d, leaf, nil
}

// addChild inserts a new node, failing if the name exists.
func (fs *FS) addChild(p string, n *Node) error {
	d, leaf, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	if _, ok := d.children[leaf]; ok {
		return &ErrExists{Path: Clean(p)}
	}
	n.name = leaf
	d.children[leaf] = n
	return nil
}

// Create makes a new empty regular file.
func (fs *FS) Create(p string) (*Node, error) {
	if fs.FaultHook != nil {
		if err := fs.FaultHook("create", Clean(p)); err != nil {
			return nil, err
		}
	}
	n := &Node{kind: KindFile}
	if err := fs.addChild(p, n); err != nil {
		return nil, err
	}
	return n, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(p string) error {
	return fs.addChild(p, &Node{kind: KindDir, children: map[string]*Node{}})
}

// MkdirAll creates a directory and all missing parents.
func (fs *FS) MkdirAll(p string) error {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	parts := strings.Split(p[1:], "/")
	cur := "/"
	for _, part := range parts {
		cur = path.Join(cur, part)
		n, err := fs.walk(cur, true, 0)
		if err == nil {
			if !n.IsDir() {
				return &ErrNotDir{Path: cur}
			}
			continue
		}
		if err := fs.Mkdir(cur); err != nil {
			return err
		}
	}
	return nil
}

// Symlink creates a symlink at p to target.
func (fs *FS) Symlink(target, p string) error {
	return fs.addChild(p, &Node{kind: KindSymlink, target: target})
}

// Mknod creates a device node.
func (fs *FS) Mknod(p string, dev Device) error {
	return fs.addChild(p, &Node{kind: KindDevice, dev: dev})
}

// Mount grafts another filesystem at p, which must be an existing directory.
func (fs *FS) Mount(p string, m FileSystem) error {
	n, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if !n.IsDir() {
		return &ErrNotDir{Path: p}
	}
	n.mount = m
	return nil
}

// Remove unlinks a file, symlink, device, or empty directory.
func (fs *FS) Remove(p string) error {
	if fs.FaultHook != nil {
		if err := fs.FaultHook("remove", Clean(p)); err != nil {
			return err
		}
	}
	d, leaf, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	n, ok := d.children[leaf]
	if !ok {
		return &ErrNotFound{Path: Clean(p)}
	}
	if n.IsDir() && len(n.children) > 0 {
		return &ErrNotEmpty{Path: Clean(p)}
	}
	delete(d.children, leaf)
	return nil
}

// ReadDir lists directory entries in name order.
func (fs *FS) ReadDir(p string) ([]*Node, error) {
	n, err := fs.walk(p, true, 0)
	if err != nil {
		return nil, err
	}
	if n.mount != nil {
		return n.mount.ReadDir("/")
	}
	if !n.IsDir() {
		return nil, &ErrNotDir{Path: Clean(p)}
	}
	out := make([]*Node, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// Rename moves oldp to newp, replacing any existing file at newp.
func (fs *FS) Rename(oldp, newp string) error {
	od, oleaf, err := fs.parentOf(oldp)
	if err != nil {
		return err
	}
	n, ok := od.children[oleaf]
	if !ok {
		return &ErrNotFound{Path: Clean(oldp)}
	}
	nd, nleaf, err := fs.parentOf(newp)
	if err != nil {
		return err
	}
	delete(od.children, oleaf)
	n.name = nleaf
	nd.children[nleaf] = n
	return nil
}

// WriteFile creates (or truncates) the file at p with the given contents,
// creating parent directories as needed.
func (fs *FS) WriteFile(p string, data []byte) error {
	n, err := fs.fileAt(p)
	if err != nil {
		return err
	}
	n.SetData(append([]byte(nil), data...))
	return nil
}

// WriteFileShared is WriteFile for caller-owned immutable bytes: the file
// stores data itself, copy-on-write exactly as Freeze marks a template's
// files, so a later write through this FS copies first and data is never
// modified. The caller must never modify data either. Installing one
// image in many trees this way shares its bytes, and with them every
// cache keyed by their identity (macho.ParseShared).
func (fs *FS) WriteFileShared(p string, data []byte) error {
	n, err := fs.fileAt(p)
	if err != nil {
		return err
	}
	n.data = data
	n.shared = data != nil
	return nil
}

// fileAt returns the regular file at p, creating it and its parent
// directories as needed.
func (fs *FS) fileAt(p string) (*Node, error) {
	dir, _ := Split(p)
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	n, err := fs.Lookup(p)
	if err != nil {
		n, err = fs.Create(p)
		if err != nil {
			return nil, err
		}
	}
	if n.IsDir() {
		return nil, &ErrIsDir{Path: Clean(p)}
	}
	return n, nil
}

// Freeze marks every file's contents as shared, turning the tree into a
// copy-on-write template: subsequent writes through this FS or any Clone
// copy the data first. Call it once, after building and before the first
// Clone; it is not safe to run concurrently with other operations.
func (fs *FS) Freeze() {
	fs.root.freeze()
}

func (n *Node) freeze() {
	if n.data != nil {
		n.shared = true
	}
	for _, c := range n.children {
		c.freeze()
	}
}

// Clone returns an independent copy of the tree. Node structure (directories,
// names, symlinks) is deep-copied; file contents are shared copy-on-write
// with the source, so cloning a frozen multi-megabyte image costs only the
// directory skeleton. Mount points and the FaultHook are not carried over:
// templates are cloned before mounts and hooks are attached.
func (fs *FS) Clone() *FS {
	return &FS{root: fs.root.clone()}
}

func (n *Node) clone() *Node {
	c := &Node{name: n.name, kind: n.kind, target: n.target, dev: n.dev}
	if n.data != nil {
		c.data = n.data
		// The copy always treats the bytes as shared, even when the source
		// was never frozen: writes through the clone must not reach the
		// source. (Writes through an unfrozen source remain visible to
		// clones — Freeze first.)
		c.shared = true
	}
	if n.children != nil {
		c.children = make(map[string]*Node, len(n.children))
		for name, child := range n.children {
			c.children[name] = child.clone()
		}
	}
	return c
}

// ReadFile returns a copy of the file contents at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	n, err := fs.Lookup(p)
	if err != nil {
		return nil, err
	}
	if n.IsDir() {
		return nil, &ErrIsDir{Path: Clean(p)}
	}
	return append([]byte(nil), n.Data()...), nil
}
