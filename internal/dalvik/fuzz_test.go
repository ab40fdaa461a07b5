package dalvik

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
)

// TestParseNeverPanics: the dex parser consumes app-store bytes.
func TestParseNeverPanics(t *testing.T) {
	check := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		Parse(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// everyShape builds a loop-free two-method program that uses every
// instruction with an extension word (Const, If, Goto, Invoke, Intrin)
// and array accesses. With no backward branch, every program that
// parses runs to completion or traps.
func everyShape() *File {
	main := NewAssembler("main", 8).
		Const(1, 7).
		Const(2, 3).
		Op3(OpAdd, 3, 1, 2).
		If(3, IfEq, "skip"). // not taken: r3 = 10
		Invoke(4, 1, 1, 2).  // r4 = helper(r1, r2)
		Intrin(5, 0, 3, 2).  // r5 = intrinsic 0 (r3, r4)
		NewArr(6, 2).
		AStore(6, 1, 5). // index 7 of 3: traps unless mutated
		Label("skip").
		Goto("end").
		Const(7, 99).
		Label("end").
		Op3(OpAdd, 0, 4, 5).
		Return(0).
		MustAssemble()
	helper := NewAssembler("helper", 4).
		Op3(OpMul, 2, 0, 1).
		Return(2).
		MustAssemble()
	return &File{Methods: []Method{main, helper}}
}

// TestParseCorruptedValid mutates a valid dex container; Parse must never
// panic, and a successful parse must still be safely executable: the
// verifier rejects code that would leave its frame or its code, so the
// VM traps on bad code rather than panicking.
func TestParseCorruptedValid(t *testing.T) {
	good, err := everyShape().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sumArgs := func(vm *VM) {
		vm.RegisterIntrinsic(0, func(_ *kernel.Thread, args []uint64) uint64 {
			var sum uint64
			for _, a := range args {
				sum += a
			}
			return sum
		})
	}
	ran := 0
	for off := 0; off < len(good); off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at offset %d: %v", off, r)
				}
			}()
			f, err := Parse(mut)
			if err != nil {
				return
			}
			ran++
			if _, _, err := execVM(t, f, "main", sumArgs); err != nil && !strings.HasPrefix(err.Error(), "dalvik: ") {
				t.Errorf("offset %d: VM error %q is not a dalvik trap", off, err)
			}
		}()
	}
	if ran == 0 {
		t.Fatal("no mutation parsed, so none ran")
	}
}

// TestVerifierRejectsEscapes builds one method per code shape that would
// index past the frame or the code and checks that Parse and Assemble
// both reject it with a dalvik error.
func TestVerifierRejectsEscapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Method
	}{
		{"register past frame", Method{Registers: 2, Code: []uint32{ins(OpAdd, 0, 1, 9), ins(OpReturn, 0, 0, 0)}}},
		{"const ext past end", Method{Registers: 2, Code: []uint32{ins(OpConst, 0, 0, 0)}}},
		{"if ext past end", Method{Registers: 2, Code: []uint32{ins(OpIf, 0, IfEq, 0)}}},
		{"goto ext past end", Method{Registers: 2, Code: []uint32{ins(OpNop, 0, 0, 0), ins(OpGoto, 0, 0, 0)}}},
		{"invoke ext past end", Method{Registers: 2, Code: []uint32{ins(OpInvoke, 0, 0, 0)}}},
		{"intrin ext past end", Method{Registers: 2, Code: []uint32{ins(OpIntrin, 0, 0, 0)}}},
		{"negative branch", Method{Registers: 2, Code: []uint32{ins(OpGoto, 0, 0, 0), uint32(0xFFFFFFFF)}}},
		{"branch past end", Method{Registers: 2, Code: []uint32{ins(OpGoto, 0, 0, 0), 3}}},
		{"branch into ext word", Method{Registers: 2, Code: []uint32{ins(OpConst, 0, 0, 0), uint32(ins(OpAdd, 0, 1, 200)), ins(OpGoto, 0, 0, 0), 1}}},
		{"invoke args past frame", Method{Registers: 4, Code: []uint32{ins(OpInvoke, 0, 0, 2), 3, ins(OpReturn, 0, 0, 0)}}},
		{"intrin args past frame", Method{Registers: 4, Code: []uint32{ins(OpIntrin, 0, 0, 1), 1 << 31, ins(OpReturn, 0, 0, 0)}}},
		{"zero args past frame", Method{Registers: 4, Code: []uint32{ins(OpIntrin, 0, 0, 5), 0, ins(OpReturn, 0, 0, 0)}}},
	} {
		tc.m.Name = "main"
		b, err := (&File{Methods: []Method{tc.m}}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(b); err == nil || !strings.HasPrefix(err.Error(), "dalvik: ") {
			t.Errorf("%s: Parse error = %v, want a dalvik error", tc.name, err)
		}
		if err := tc.m.verify(); err == nil {
			t.Errorf("%s: verify accepted it", tc.name)
		}
	}
	// A branch just past the last instruction is a fall-off return.
	ok := Method{Name: "main", Registers: 1, Code: []uint32{ins(OpGoto, 0, 0, 0), 2}}
	if err := ok.verify(); err != nil {
		t.Errorf("branch to the end of the code rejected: %v", err)
	}
	if _, err := NewAssembler("main", 2).Op3(OpAdd, 0, 1, 2).Return(0).Assemble(); err == nil {
		t.Error("Assemble accepted a register past the frame")
	}
}

// genProgram builds a random three-method program. main runs a loop of r0
// iterations over a body of random instructions: integer, double,
// compare, array, forward-branch, NewArr and (in one program in three)
// call and intrinsic shapes. At its longest one pass of the body sums past
// the charge quantum, so flushes fall both inside a pass and between
// passes. Some registers are read before they are written. A
// risky program takes an occasional divisor, array index or array ref from
// a data register and plants one trap that fires after some iterations,
// so traps (divide by zero, index out of range, bad array ref, stack
// overflow) land between flushes, before and after quantum crossings.
func genProgram(rng *rand.Rand, risky bool) *File {
	const (
		rN, rArr, rI, rOne, rCmp, rIdx, rMask, rArr2 = 0, 9, 10, 11, 12, 13, 14, 15
	)
	data := func() uint8 { return uint8(1 + rng.Intn(8)) } // r1..r8
	src := func() uint8 { return uint8(rng.Intn(12)) }     // r0..r11
	consts := []int32{0, 1, 2, 3, -1, -7, 100, 1 << 20, math.MaxInt32, math.MinInt32}
	a := NewAssembler("main", 16)
	for r := uint8(1); r <= 8; r++ {
		switch rng.Intn(4) {
		case 0: // read before written: zero in a fresh frame
		case 1:
			a.Const(r, consts[rng.Intn(len(consts))])
		default:
			a.Const(r, rng.Int31()-rng.Int31())
		}
	}
	// Indices masked to 0..15 stay in range; a risky program now and
	// then indexes with a raw data register or names no array.
	riskyOp := func() bool { return risky && rng.Intn(64) == 0 }
	a.Const(rMask, 15).Const(rIdx, int32(16+rng.Intn(8))).NewArr(rArr, rIdx).Const(rI, 0).Const(rOne, 1)
	a.Label("loop")
	if rng.Intn(4) == 0 {
		a.Op3(OpSub, rCmp, rI, rN) // an If on a Sub, not a Cmp
	} else {
		a.Op3(OpCmp, rCmp, rI, rN)
	}
	a.If(rCmp, IfGe, "done")
	var n int
	switch rng.Intn(4) {
	case 0:
		n = 1 + rng.Intn(20)
	case 1, 2:
		n = 20 + rng.Intn(200)
	default:
		n = 500 + rng.Intn(1500)
	}
	// Calls flush, so a program with calls in its loop seldom reaches
	// the quantum; two in three programs have none.
	calls := rng.Intn(3) == 0
	alu := []uint8{OpAdd, OpSub, OpMul, OpDiv, OpRem, OpXor, OpAnd, OpOr, OpShl, OpShr, OpDAdd, OpDMul, OpDDiv, OpCmp}
	label := 0
	// A risky program also plants one trap that fires only after some
	// iterations: a divisor that reaches zero, or an index that reaches
	// the array's end.
	plant := -1
	if risky {
		plant = rng.Intn(n)
	}
	for i := 0; i < n; i++ {
		if i == plant {
			switch rng.Intn(3) {
			case 0:
				a.Const(rIdx, int32(rng.Intn(100))).Op3(OpSub, rIdx, rI, rIdx).Op3(OpDiv+uint8(rng.Intn(2)), data(), src(), rIdx)
			case 1:
				a.ALoad(data(), rArr, rI)
			default:
				a.AStore(rArr, rI, src())
			}
		}
		switch k := rng.Intn(40); {
		case k < 20:
			op, b, c := alu[rng.Intn(len(alu))], src(), src()
			if (op == OpDiv || op == OpRem) && !riskyOp() {
				c = rOne
			}
			a.Op3(op, data(), b, c)
		case k < 22:
			a.Move(data(), src())
		case k < 24:
			a.Op3(OpI2D, data(), src(), 0)
		case k < 26:
			a.Const(data(), consts[rng.Intn(len(consts))])
		case k == 26:
			a.Op3(OpNop, 0, 0, 0)
		case k < 30:
			arr := uint8(rArr)
			if riskyOp() {
				arr = src() // most likely no array
			}
			a.Op3(OpAnd, rIdx, src(), rMask)
			if riskyOp() {
				a.Move(rIdx, src())
			}
			if rng.Intn(2) == 0 {
				a.ALoad(data(), arr, rIdx)
			} else {
				a.AStore(arr, rIdx, src())
			}
		case k < 32:
			a.ArrLen(data(), rArr)
		case k < 35:
			l := fmt.Sprintf("fwd%d", label)
			label++
			if rng.Intn(3) == 0 {
				a.Goto(l)
			} else {
				a.If(src(), uint8(rng.Intn(7)), l)
			}
			for j := rng.Intn(4); j > 0; j-- {
				a.Op3(alu[rng.Intn(3)], data(), src(), src())
			}
			a.Label(l)
		case k < 37 && calls:
			a.Invoke(data(), 1, 1, 3)
		case k < 39 && calls:
			a.Intrin(data(), 0, 1, 2)
		case k < 39:
			a.Op3(OpAdd, data(), src(), src())
		default:
			a.Const(rArr2, int32(rng.Intn(40))).NewArr(rArr2, rArr2)
		}
	}
	if risky && rng.Intn(20) == 0 {
		a.Invoke(data(), 2, 1, 1)
	}
	a.Op3(OpAdd, rI, rI, rOne).Goto("loop").Label("done").Return(data())
	helper := NewAssembler("helper", 8).
		Op3(OpMul, 3, 0, 1).
		Op3(OpAdd, 3, 3, 2).
		Const(4, 3).
		NewArr(5, 4)
	if risky && rng.Intn(4) == 0 {
		helper.ALoad(6, 5, 2) // an index from the caller's data
	}
	if risky && rng.Intn(4) == 0 {
		helper.Op3(OpRem, 3, 3, 1)
	}
	helper.Return(3)
	recurse := NewAssembler("recurse", 2).Invoke(1, 2, 0, 1).Return(1)
	return &File{Methods: []Method{a.MustAssemble(), helper.MustAssemble(), recurse.MustAssemble()}}
}

// sumIntrinsics installs intrinsic 0, which sums its arguments.
var sumIntrinsics = map[uint8]Intrinsic{0: func(_ *kernel.Thread, args []uint64) uint64 {
	var sum uint64
	for _, a := range args {
		sum += a
	}
	return sum
}}

// TestDifferentialGenerated runs generated programs on VM and on the
// reference interpreter, on the Nexus 7 (integral CPIs) and the iPad mini
// (fractional ones), and requires identical results, errors, executed
// counts and flushes.
func TestDifferentialGenerated(t *testing.T) {
	cpus := []*hw.CPUModel{hw.Nexus7().CPU, hw.IPadMini().CPU}
	traps := 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := genProgram(rng, seed%2 == 0)
		iters := uint64(rng.Intn(100))
		for _, cpu := range cpus {
			if d := differ(cpu, f, "main", sumIntrinsics, iters); d != "" {
				t.Fatalf("seed %d on %s: %s", seed, cpu.Name, d)
			}
		}
		if _, err := newRefVM(cpus[0], sumIntrinsics, func(time.Duration) {}).Run(f, "main", iters); err != nil {
			traps++
		}
	}
	if traps < 100 {
		t.Errorf("only %d of 400 programs trapped; the risky half should trap often", traps)
	}
}

// TestDifferentialCorrupted runs every corrupted everyShape container
// that parses on VM and on the reference interpreter: unknown opcodes,
// rewired operands and frames wider than 256 registers.
func TestDifferentialCorrupted(t *testing.T) {
	good, err := everyShape().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(good); off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xFF
		f, err := Parse(mut)
		if err != nil {
			continue
		}
		if _, ok := f.MethodIndex("main"); !ok {
			continue
		}
		if d := differ(hw.Nexus7().CPU, f, "main", sumIntrinsics); d != "" {
			t.Errorf("offset %d: %s", off, d)
		}
	}
}
