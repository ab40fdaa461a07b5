// Package prog is the simulated machine-code registry: the bridge between
// binary images (Mach-O / ELF bytes) and runnable behaviour.
//
// A real binary's text segment contains ARM instructions; this simulation
// cannot execute ARM, so a text segment instead carries a small payload
// naming a registered program ("prog:<key>"). Loaders parse the real binary
// format, find the payload, and bind it to a Go function from the Registry —
// exactly the role symbol binding plays for dyld and the ELF loader.
// Exported library functions use per-symbol keys ("<install-name>#<symbol>")
// so dynamic linkers and diplomatic function generators can resolve
// individual entry points.
package prog

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Call carries the arguments of one simulated native call. The caller
// may reuse a Call and its Args for its next call (kernel.Thread.CallFunc
// keeps one per thread and nesting depth), so a callee must not keep c or
// c.Args after it returns; it copies what it needs to keep.
type Call struct {
	// Ctx is the execution context (the kernel thread handle); callees
	// type-assert it to the concrete context they were written against.
	Ctx any
	// Args are the integer/pointer arguments, ABI style.
	Args []uint64
}

// Arg returns argument i, or 0 when absent (varargs-tolerant).
func (c *Call) Arg(i int) uint64 {
	if i < len(c.Args) {
		return c.Args[i]
	}
	return 0
}

// Func is the body of a simulated program entry point or exported function.
// It must not keep c or c.Args after it returns (see Call).
type Func func(c *Call) uint64

// Registry maps code keys to implementations. A Registry represents "the
// machine code that exists in the world" for one simulated system; tests
// and systems construct their own to stay independent.
type Registry struct {
	funcs map[string]Func
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: make(map[string]Func)}
}

// NewRegistrySize creates an empty registry with room for n keys, so
// registering up to n of them never regrows its map.
func NewRegistrySize(n int) *Registry {
	return &Registry{funcs: make(map[string]Func, n)}
}

// Len returns the number of registered keys.
func (r *Registry) Len() int { return len(r.funcs) }

// Register binds key to fn, failing on duplicates (two different pieces of
// machine code cannot share an identity).
func (r *Registry) Register(key string, fn Func) error {
	if _, ok := r.funcs[key]; ok {
		return fmt.Errorf("prog: duplicate registration of %q", key)
	}
	if fn == nil {
		return fmt.Errorf("prog: nil function for %q", key)
	}
	r.funcs[key] = fn
	return nil
}

// MustRegister is Register that panics on error (init-time wiring).
func (r *Registry) MustRegister(key string, fn Func) {
	if err := r.Register(key, fn); err != nil {
		panic(err)
	}
}

// Lookup resolves a code key.
func (r *Registry) Lookup(key string) (Func, bool) {
	fn, ok := r.funcs[key]
	return fn, ok
}

// Keys returns all registered keys, sorted (diagnostics).
func (r *Registry) Keys() []string {
	out := make([]string, 0, len(r.funcs))
	for k := range r.funcs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// textMagic prefixes a text-segment program payload.
const textMagic = "prog:"

// TextPayload encodes a program key as text-segment bytes.
func TextPayload(key string) []byte {
	return append([]byte(textMagic+key), 0)
}

// ParseTextPayload extracts the program key from text-segment bytes.
func ParseTextPayload(b []byte) (string, error) {
	if !bytes.HasPrefix(b, []byte(textMagic)) {
		return "", fmt.Errorf("prog: text segment carries no program payload")
	}
	rest := b[len(textMagic):]
	i := bytes.IndexByte(rest, 0)
	if i < 0 {
		return "", fmt.Errorf("prog: unterminated program payload")
	}
	return string(rest[:i]), nil
}

// SymbolKey names an exported function of a library image: dyld and the ELF
// loader bind "<install-name>#<symbol>" when resolving imports.
func SymbolKey(image, symbol string) string {
	return image + "#" + symbol
}

// exportKeys holds ExportKeys' lists, one per (image, prefix, list).
var exportKeys struct {
	sync.Mutex
	m map[exportList][]string
}

// exportList identifies a static symbol list by its backing array and
// length, and the image and symbol prefix its keys are built for.
type exportList struct {
	image, prefix string
	p             *string
	n             int
}

// ExportKeys returns SymbolKey(image, prefix+s) for every s in symbols,
// in order. The keys of one (image, prefix, list) are built once per
// process and shared: the export lists are static package tables that
// every boot registers again. The list is known by its backing array, so
// symbols must never change once passed here, and the result is
// read-only.
func ExportKeys(image, prefix string, symbols []string) []string {
	if len(symbols) == 0 {
		return nil
	}
	id := exportList{image: image, prefix: prefix, p: &symbols[0], n: len(symbols)}
	exportKeys.Lock()
	defer exportKeys.Unlock()
	keys, ok := exportKeys.m[id]
	if !ok {
		keys = make([]string, len(symbols))
		for i, s := range symbols {
			keys[i] = SymbolKey(image, prefix+s)
		}
		if exportKeys.m == nil {
			exportKeys.m = make(map[exportList][]string)
		}
		exportKeys.m[id] = keys
	}
	return keys
}

// SplitSymbolKey inverts SymbolKey.
func SplitSymbolKey(key string) (image, symbol string, ok bool) {
	i := strings.LastIndex(key, "#")
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}
