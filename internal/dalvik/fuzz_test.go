package dalvik

import (
	"strings"
	"testing"
	"testing/quick"

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
