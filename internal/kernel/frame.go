package kernel

import "repro/internal/prog"

// slots is a per-thread stack of reusable records, one per nesting level
// of the thread's in-flight calls. A trap or call made while another is
// still running (a signal handler on a trap's return path, the image an
// execve runs inside its handler, a domestic function called from a
// diplomat) takes the next level, so every level keeps its own record.
// The first level lives inline in the Thread; deeper levels are allocated
// once, the first time the thread reaches them, and reused after that.
//
// A level is released when its call returns. exit and a fatal signal
// unwind the thread's Proc instead of returning, and the dead thread
// never traps again; a successful execve runs the new image inside its
// handler, so the image's traps and calls sit one level deeper for the
// rest of the process's life.
type slots[T any] struct {
	depth int
	first T
	more  []*T
}

// push takes the record for the next nesting level.
func (s *slots[T]) push() *T {
	d := s.depth
	s.depth++
	if d == 0 {
		return &s.first
	}
	if d > len(s.more) {
		s.more = append(s.more, new(T))
	}
	return s.more[d-1]
}

// pop releases the innermost level.
func (s *slots[T]) pop() { s.depth-- }

// frameArgs is how many call arguments a frame holds inline; a call with
// more (none of the GL surface has) copies them into the frame's spill
// buffer, which is kept for the next call at that level.
const frameArgs = 10

// callFrame is one level of a thread's call frame stack.
type callFrame struct {
	c     prog.Call
	args  [frameArgs]uint64
	spill []uint64
}

// CallFunc calls fn on the calling thread with a copy of args, in the
// thread's call frame for this nesting level: the prog.Call and its
// argument storage are reused across calls, so a library call allocates
// nothing. fn must not keep c or c.Args after it returns (see prog.Func);
// the next call at the same level overwrites them.
//
//hot:noalloc
func (t *Thread) CallFunc(fn prog.Func, args []uint64) uint64 {
	f := t.frames.push()
	f.c.Ctx = t
	if len(args) <= len(f.args) {
		f.c.Args = f.args[:copy(f.args[:], args)]
	} else {
		f.spill = append(f.spill[:0], args...)
		f.c.Args = f.spill
	}
	ret := fn(&f.c)
	t.frames.pop()
	return ret
}

// Entry turns a thread body into a program entry point: the body runs on
// the thread the entry is called on, and the entry returns 0.
func Entry(body func(t *Thread)) prog.Func {
	return func(c *prog.Call) uint64 {
		body(c.Ctx.(*Thread))
		return 0
	}
}
