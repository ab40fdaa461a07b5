package dalvik

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hw"
)

// refVM is the reference interpreter: the loop VM ran before methods were
// decoded and frames reused, kept verbatim but for its frame type
// and its charge sink. It pays two closure adds per bytecode, a fresh
// frame and array map per call and a fresh argument slice per call out.
// The differential tests run it beside VM and require the same result,
// error, executed count and sequence of flushed durations.
type refVM struct {
	cpu            *hw.CPUModel
	dispatchCycles float64
	jniCycles      float64
	intrinsics     map[uint8]Intrinsic
	executed       uint64
	// sink receives each flushed duration.
	sink func(time.Duration)
}

func newRefVM(cpu *hw.CPUModel, intrinsics map[uint8]Intrinsic, sink func(time.Duration)) *refVM {
	return &refVM{cpu: cpu, dispatchCycles: 14, jniCycles: 260, intrinsics: intrinsics, sink: sink}
}

// refFrame is one method activation of the reference interpreter.
type refFrame struct {
	regs   []uint64
	arrays map[uint64][]uint64
}

func (vm *refVM) Run(f *File, method string, args ...uint64) (uint64, error) {
	idx, ok := f.MethodIndex(method)
	if !ok {
		return 0, fmt.Errorf("dalvik: no method %q", method)
	}
	return vm.call(f, idx, args, 0)
}

func (vm *refVM) call(f *File, midx int, args []uint64, depth int) (uint64, error) {
	if depth > maxDepth {
		return 0, fmt.Errorf("dalvik: stack overflow")
	}
	m := &f.Methods[midx]
	fr := refFrame{regs: make([]uint64, m.Registers), arrays: make(map[uint64][]uint64)}
	copy(fr.regs, args)
	var pending float64
	charge := func(c float64) {
		pending += c
		if pending >= chargeQuantum {
			vm.sink(vm.cpu.Cycles(pending))
			pending = 0
		}
	}
	flush := func() {
		if pending > 0 {
			vm.sink(vm.cpu.Cycles(pending))
			pending = 0
		}
	}
	cpi := func(op hw.CPUOp) float64 { return vm.cpu.CPI[op] }

	pc := 0
	code := m.Code
	nextArrayID := uint64(1)
	for pc < len(code) {
		w := code[pc]
		op := uint8(w)
		b1, b2, b3 := uint8(w>>8), uint8(w>>16), uint8(w>>24)
		vm.executed++
		charge(vm.dispatchCycles)
		pc++
		switch op {
		case OpNop:
		case OpConst:
			fr.regs[b1] = uint64(int64(int32(code[pc])))
			pc++
			charge(cpi(hw.OpIntAdd))
		case OpMove:
			fr.regs[b1] = fr.regs[b2]
			charge(cpi(hw.OpIntAdd))
		case OpAdd:
			fr.regs[b1] = uint64(int64(fr.regs[b2]) + int64(fr.regs[b3]))
			charge(cpi(hw.OpIntAdd))
		case OpSub:
			fr.regs[b1] = uint64(int64(fr.regs[b2]) - int64(fr.regs[b3]))
			charge(cpi(hw.OpIntAdd))
		case OpMul:
			fr.regs[b1] = uint64(int64(fr.regs[b2]) * int64(fr.regs[b3]))
			charge(cpi(hw.OpIntMul))
		case OpDiv:
			d := int64(fr.regs[b3])
			if d == 0 {
				flush()
				return 0, fmt.Errorf("dalvik: divide by zero in %s", m.Name)
			}
			fr.regs[b1] = uint64(int64(fr.regs[b2]) / d)
			charge(cpi(hw.OpIntDiv))
		case OpRem:
			d := int64(fr.regs[b3])
			if d == 0 {
				flush()
				return 0, fmt.Errorf("dalvik: remainder by zero in %s", m.Name)
			}
			fr.regs[b1] = uint64(int64(fr.regs[b2]) % d)
			charge(cpi(hw.OpIntDiv))
		case OpXor:
			fr.regs[b1] = fr.regs[b2] ^ fr.regs[b3]
			charge(cpi(hw.OpIntAdd))
		case OpAnd:
			fr.regs[b1] = fr.regs[b2] & fr.regs[b3]
			charge(cpi(hw.OpIntAdd))
		case OpOr:
			fr.regs[b1] = fr.regs[b2] | fr.regs[b3]
			charge(cpi(hw.OpIntAdd))
		case OpShl:
			fr.regs[b1] = fr.regs[b2] << (fr.regs[b3] & 63)
			charge(cpi(hw.OpIntAdd))
		case OpShr:
			fr.regs[b1] = fr.regs[b2] >> (fr.regs[b3] & 63)
			charge(cpi(hw.OpIntAdd))
		case OpDAdd:
			fr.regs[b1] = math.Float64bits(math.Float64frombits(fr.regs[b2]) + math.Float64frombits(fr.regs[b3]))
			charge(cpi(hw.OpFloatAdd))
		case OpDMul:
			fr.regs[b1] = math.Float64bits(math.Float64frombits(fr.regs[b2]) * math.Float64frombits(fr.regs[b3]))
			charge(cpi(hw.OpFloatMul))
		case OpDDiv:
			fr.regs[b1] = math.Float64bits(math.Float64frombits(fr.regs[b2]) / math.Float64frombits(fr.regs[b3]))
			charge(cpi(hw.OpFloatDiv))
		case OpI2D:
			fr.regs[b1] = math.Float64bits(float64(int64(fr.regs[b2])))
			charge(cpi(hw.OpFloatAdd))
		case OpCmp:
			a, b := int64(fr.regs[b2]), int64(fr.regs[b3])
			switch {
			case a < b:
				fr.regs[b1] = uint64(math.MaxUint64) // -1
			case a > b:
				fr.regs[b1] = 1
			default:
				fr.regs[b1] = 0
			}
			charge(cpi(hw.OpIntAdd))
		case OpIf:
			target := int(int32(code[pc]))
			pc++
			v := int64(fr.regs[b1])
			taken := false
			switch b2 {
			case IfEq:
				taken = v == 0
			case IfNe:
				taken = v != 0
			case IfLt:
				taken = v < 0
			case IfGe:
				taken = v >= 0
			case IfGt:
				taken = v > 0
			case IfLe:
				taken = v <= 0
			}
			charge(cpi(hw.OpBranch))
			if taken {
				pc = target
			}
		case OpGoto:
			pc = int(int32(code[pc]))
			charge(cpi(hw.OpBranch))
		case OpNewArr:
			n := int64(fr.regs[b2])
			if n < 0 || n > 1<<24 {
				flush()
				return 0, fmt.Errorf("dalvik: bad array size %d", n)
			}
			id := nextArrayID
			nextArrayID++
			fr.arrays[id] = make([]uint64, n)
			fr.regs[b1] = id
			charge(float64(n)/8 + 40) // zeroing cost
		case OpALoad:
			arr, ok := fr.arrays[fr.regs[b2]]
			if !ok {
				flush()
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			i := int64(fr.regs[b3])
			if i < 0 || i >= int64(len(arr)) {
				flush()
				return 0, fmt.Errorf("dalvik: index %d out of range %d", i, len(arr))
			}
			fr.regs[b1] = arr[i]
			charge(cpi(hw.OpLoad))
		case OpAStore:
			arr, ok := fr.arrays[fr.regs[b1]]
			if !ok {
				flush()
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			i := int64(fr.regs[b2])
			if i < 0 || i >= int64(len(arr)) {
				flush()
				return 0, fmt.Errorf("dalvik: index %d out of range %d", i, len(arr))
			}
			arr[i] = fr.regs[b3]
			charge(cpi(hw.OpStore))
		case OpArrLen:
			arr, ok := fr.arrays[fr.regs[b2]]
			if !ok {
				flush()
				return 0, fmt.Errorf("dalvik: bad array ref in %s", m.Name)
			}
			fr.regs[b1] = uint64(len(arr))
			charge(cpi(hw.OpLoad))
		case OpInvoke:
			nargs := int(code[pc])
			pc++
			if int(b2) >= len(f.Methods) {
				flush()
				return 0, fmt.Errorf("dalvik: bad method index %d", b2)
			}
			callArgs := make([]uint64, nargs)
			copy(callArgs, fr.regs[b3:int(b3)+nargs])
			charge(60) // frame push/pop
			flush()
			ret, err := vm.call(f, int(b2), callArgs, depth+1)
			if err != nil {
				return 0, err
			}
			fr.regs[b1] = ret
		case OpIntrin:
			nargs := int(code[pc])
			pc++
			fn, ok := vm.intrinsics[b2]
			if !ok {
				flush()
				return 0, fmt.Errorf("dalvik: unknown intrinsic %d", b2)
			}
			callArgs := make([]uint64, nargs)
			copy(callArgs, fr.regs[b3:int(b3)+nargs])
			charge(vm.jniCycles)
			flush()
			fr.regs[b1] = fn(nil, callArgs)
		case OpReturn:
			flush()
			return fr.regs[b1], nil
		default:
			flush()
			return 0, fmt.Errorf("dalvik: bad opcode %d at %d in %s", op, pc-1, m.Name)
		}
	}
	flush()
	return 0, nil
}

// outcome is what one Run shows from outside: its result, its error, the
// bytecodes it executed and the durations it flushed, in order.
type outcome struct {
	ret      uint64
	err      string
	executed uint64
	flushes  []time.Duration
}

func (o *outcome) diff(want *outcome) string {
	switch {
	case o.err != want.err:
		return fmt.Sprintf("error %q, reference %q", o.err, want.err)
	case o.ret != want.ret:
		return fmt.Sprintf("result %#x, reference %#x", o.ret, want.ret)
	case o.executed != want.executed:
		return fmt.Sprintf("executed %d, reference %d", o.executed, want.executed)
	}
	for i := range max(len(o.flushes), len(want.flushes)) {
		if i >= len(o.flushes) || i >= len(want.flushes) || o.flushes[i] != want.flushes[i] {
			return fmt.Sprintf("%d flushes, reference %d; first difference at flush %d", len(o.flushes), len(want.flushes), i)
		}
	}
	return ""
}

// differ runs method of f with args twice on one VM and twice on one
// reference interpreter, both for cpu and with intrinsics installed, and
// describes the first difference between the two, or returns "". The
// second run on each shows that a VM's reused frames and arrays leave
// nothing behind.
func differ(cpu *hw.CPUModel, f *File, method string, intrinsics map[uint8]Intrinsic, args ...uint64) string {
	var got, want outcome
	vm := NewVM(cpu)
	for id, fn := range intrinsics {
		vm.RegisterIntrinsic(id, fn)
	}
	vm.hook = func(d time.Duration) { got.flushes = append(got.flushes, d) }
	ref := newRefVM(cpu, intrinsics, func(d time.Duration) { want.flushes = append(want.flushes, d) })
	errString := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for run := 1; run <= 2; run++ {
		got.flushes, want.flushes = nil, nil
		before, refBefore := vm.Executed(), ref.executed
		ret, err := vm.Run(nil, f, method, args...)
		got.ret, got.err, got.executed = ret, errString(err), vm.Executed()-before
		ret, err = ref.Run(f, method, args...)
		want.ret, want.err, want.executed = ret, errString(err), ref.executed-refBefore
		if d := got.diff(&want); d != "" {
			return fmt.Sprintf("%s%v run %d: %s", method, args, run, d)
		}
	}
	return ""
}
