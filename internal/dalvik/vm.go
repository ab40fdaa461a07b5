package dalvik

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
)

// Intrinsic is a JNI-style native method reachable from bytecode: the VM
// charges a JNI transition cost, then the native side charges its own
// (native) costs — exactly how the Android PassMark app reaches OpenGL ES
// and the storage stack.
type Intrinsic func(t *kernel.Thread, args []uint64) uint64

// VM is a Dalvik-style interpreting virtual machine instance. It is not
// safe for concurrent use.
type VM struct {
	cpu *hw.CPUModel
	// dispatch is the interpreter's per-bytecode fetch/decode/dispatch
	// overhead, the cost native code does not pay; cost holds each cost
	// class's cycles on top of it.
	dispatch   float64
	cost       [numCosts]float64
	intrinsics map[uint8]Intrinsic
	// executed counts interpreted instructions (diagnostics).
	executed uint64

	// frames holds one frame per call level, reused across calls; level
	// is the number in use.
	frames []*frame
	level  int
	// free holds array backings of exited frames for NewArr to reuse.
	free [][]uint64
	// local holds the decoded forms of methods built without Parse or
	// Assemble (or changed since), which this VM verified on first use.
	local map[*Method]*decoded

	// hook, when set (by tests), receives each flushed duration instead
	// of the thread.
	hook func(time.Duration)
}

// NewVM builds a VM for a CPU.
func NewVM(cpu *hw.CPUModel) *VM {
	vm := &VM{
		cpu:        cpu,
		dispatch:   14, // Dalvik's interpreter loop per bytecode
		intrinsics: make(map[uint8]Intrinsic),
	}
	copy(vm.cost[:numCPUOps], cpu.CPI[:])
	vm.cost[costFrame] = 60
	vm.cost[costJNI] = 260
	return vm
}

// RegisterIntrinsic installs a native method under id.
func (vm *VM) RegisterIntrinsic(id uint8, fn Intrinsic) {
	vm.intrinsics[id] = fn
}

// Executed reports interpreted instruction count.
func (vm *VM) Executed() uint64 { return vm.executed }

// frame is one method activation's storage.
type frame struct {
	// regs is the register window, at least 256 wide so that any operand
	// byte indexes it.
	regs []uint64
	// arrays holds the frame's arrays; array id i is arrays[i-1].
	arrays [][]uint64
}

// push takes the next level's frame with a window for regs registers.
func (vm *VM) push(regs int) *frame {
	if vm.level == len(vm.frames) {
		vm.frames = append(vm.frames, &frame{})
	}
	fr := vm.frames[vm.level]
	vm.level++
	if w := max(regs, 256); len(fr.regs) < w {
		fr.regs = make([]uint64, w)
	}
	return fr
}

// maxFree bounds the array backings a VM keeps for reuse.
const maxFree = 16

// pop releases the top frame and keeps its arrays for reuse.
func (vm *VM) pop(fr *frame) {
	vm.level--
	for i, a := range fr.arrays {
		if len(vm.free) < maxFree {
			vm.free = append(vm.free, a)
		}
		fr.arrays[i] = nil
	}
	fr.arrays = fr.arrays[:0]
}

// newArray returns a zeroed array of n elements, on the smallest freed
// backing that is large enough, if any.
func (vm *VM) newArray(n int) []uint64 {
	best := -1
	for i, a := range vm.free {
		if cap(a) >= n && (best < 0 || cap(a) < cap(vm.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]uint64, n)
	}
	a := vm.free[best][:n]
	last := len(vm.free) - 1
	vm.free[best], vm.free[last] = vm.free[last], nil
	vm.free = vm.free[:last]
	clear(a)
	return a
}

// Run interprets the named method with the given arguments (placed in the
// lowest registers). The calling thread is charged the interpretation
// cost: dispatch overhead per instruction plus the arithmetic cost of each
// operation on the device CPU.
func (vm *VM) Run(t *kernel.Thread, f *File, method string, args ...uint64) (uint64, error) {
	idx, ok := f.MethodIndex(method)
	if !ok {
		return 0, fmt.Errorf("dalvik: no method %q", method)
	}
	return vm.call(t, f, idx, args, 0)
}

// maxDepth bounds recursion.
const maxDepth = 128

// chargeQuantum flushes accumulated cycles to the simulator.
const chargeQuantum = 20000

// flush charges the thread for pending cycles.
func (vm *VM) flush(t *kernel.Thread, pending float64) {
	if pending > 0 {
		d := vm.cpu.Cycles(pending)
		if vm.hook != nil {
			vm.hook(d)
			return
		}
		t.Charge(d)
	}
}

func (vm *VM) call(t *kernel.Thread, f *File, midx int, args []uint64, depth int) (uint64, error) {
	if depth > maxDepth {
		return 0, fmt.Errorf("dalvik: stack overflow")
	}
	m := &f.Methods[midx]
	d, err := vm.decoded(m)
	if err != nil {
		return 0, err
	}
	fr := vm.push(m.Registers)
	defer vm.pop(fr)
	regs := fr.regs[:m.Registers]
	clear(regs)
	copy(regs, args)
	return vm.exec(t, f, m, d, fr, depth)
}

// decoded returns m's decoded form: the one Parse or Assemble built or,
// for a method built by hand or changed since, one this VM verifies and
// decodes on first use and keeps, so that Run never writes to a File.
func (vm *VM) decoded(m *Method) (*decoded, error) {
	if m.dec.fits(m) {
		return m.dec, nil
	}
	if d := vm.local[m]; d.fits(m) {
		return d, nil
	}
	d, err := m.check()
	if err != nil {
		return nil, err
	}
	if vm.local == nil {
		vm.local = make(map[*Method]*decoded)
	}
	vm.local[m] = d
	return d, nil
}

// exec interprets one activation of m from its decoded form. Per
// bytecode it adds the dispatch and then the op's cost to pending,
// flushing to the thread whenever pending reaches the quantum; a trap,
// a call out and a return flush what is pending. That sequence of adds
// and flushes is the VM's virtual time.
func (vm *VM) exec(t *kernel.Thread, f *File, m *Method, d *decoded, fr *frame, depth int) (uint64, error) {
	r := (*[256]uint64)(fr.regs)
	code := d.ins
	var pending float64
	pc := 0
	for pc < len(code) {
		in := &code[pc]
		pc++
		vm.executed++
		if pending += vm.dispatch; pending >= chargeQuantum {
			vm.flush(t, pending)
			pending = 0
		}
		switch in.op {
		case OpNop:
		case OpConst:
			r[in.a] = uint64(int64(in.x))
		case OpMove:
			r[in.a] = r[in.b]
		case OpAdd:
			r[in.a] = r[in.b] + r[in.c]
		case OpSub:
			r[in.a] = r[in.b] - r[in.c]
		case OpMul:
			r[in.a] = r[in.b] * r[in.c]
		case OpDiv:
			dv := int64(r[in.c])
			if dv == 0 {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: divide by zero in %s", m.Name)
			}
			r[in.a] = uint64(int64(r[in.b]) / dv)
		case OpRem:
			dv := int64(r[in.c])
			if dv == 0 {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: remainder by zero in %s", m.Name)
			}
			r[in.a] = uint64(int64(r[in.b]) % dv)
		case OpXor:
			r[in.a] = r[in.b] ^ r[in.c]
		case OpAnd:
			r[in.a] = r[in.b] & r[in.c]
		case OpOr:
			r[in.a] = r[in.b] | r[in.c]
		case OpShl:
			r[in.a] = r[in.b] << (r[in.c] & 63)
		case OpShr:
			r[in.a] = r[in.b] >> (r[in.c] & 63)
		case OpDAdd:
			r[in.a] = math.Float64bits(math.Float64frombits(r[in.b]) + math.Float64frombits(r[in.c]))
		case OpDMul:
			r[in.a] = math.Float64bits(math.Float64frombits(r[in.b]) * math.Float64frombits(r[in.c]))
		case OpDDiv:
			r[in.a] = math.Float64bits(math.Float64frombits(r[in.b]) / math.Float64frombits(r[in.c]))
		case OpI2D:
			r[in.a] = math.Float64bits(float64(int64(r[in.b])))
		case OpCmp:
			r[in.a], _ = compare(r[in.b], r[in.c])
		case OpIf:
			if _, sign := compare(r[in.a], 0); in.m>>sign&1 != 0 {
				pc = int(in.x)
			}
		case OpGoto:
			pc = int(in.x)
		case OpALoad:
			id := r[in.b] - 1
			if id >= uint64(len(fr.arrays)) {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			arr := fr.arrays[id]
			i := r[in.c]
			if i >= uint64(len(arr)) {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: index %d out of range %d", int64(i), len(arr))
			}
			r[in.a] = arr[i]
		case OpAStore:
			id := r[in.a] - 1
			if id >= uint64(len(fr.arrays)) {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			arr := fr.arrays[id]
			i := r[in.b]
			if i >= uint64(len(arr)) {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: index %d out of range %d", int64(i), len(arr))
			}
			arr[i] = r[in.c]
		case OpArrLen:
			id := r[in.b] - 1
			if id >= uint64(len(fr.arrays)) {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			r[in.a] = uint64(len(fr.arrays[id]))
		case OpNewArr:
			n := int64(r[in.b])
			if n < 0 || n > 1<<24 {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: bad array size %d", n)
			}
			fr.arrays = append(fr.arrays, vm.newArray(int(n)))
			r[in.a] = uint64(len(fr.arrays))
			if pending += float64(n)/8 + 40; pending >= chargeQuantum { // zeroing cost
				vm.flush(t, pending)
				pending = 0
			}
			continue
		case OpInvoke:
			if int(in.b) >= len(f.Methods) {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: bad method index %d", in.b)
			}
			vm.flush(t, pending+vm.cost[costFrame])
			pending = 0
			first := int(in.c)
			ret, err := vm.call(t, f, int(in.b), fr.regs[first:first+int(in.x)], depth+1)
			if err != nil {
				return 0, err
			}
			r[in.a] = ret
			continue
		case OpIntrin:
			fn := vm.intrinsics[in.b]
			if fn == nil {
				vm.flush(t, pending)
				return 0, fmt.Errorf("dalvik: unknown intrinsic %d", in.b)
			}
			callArgs := make([]uint64, in.x)
			copy(callArgs, fr.regs[in.c:])
			vm.flush(t, pending+vm.cost[costJNI])
			pending = 0
			r[in.a] = fn(t, callArgs)
			continue
		case OpReturn:
			vm.flush(t, pending)
			return r[in.a], nil
		default:
			vm.flush(t, pending)
			return 0, fmt.Errorf("dalvik: bad opcode %d at %d in %s", in.a, in.x, m.Name)
		}
		if pending += vm.cost[in.cls]; pending >= chargeQuantum {
			vm.flush(t, pending)
			pending = 0
		}
	}
	vm.flush(t, pending)
	return 0, nil
}

// compare returns sign(a - b) of two int64s as a register value, and as
// an index into a condition's sign mask (0 negative, 1 zero, 2 positive).
func compare(a, b uint64) (uint64, uint8) {
	switch x, y := int64(a), int64(b); {
	case x < y:
		return math.MaxUint64, 0 // -1
	case x > y:
		return 1, 2
	}
	return 0, 1
}
