package dalvik

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// runVM executes method main of f on a fresh simulated thread.
func runVM(t *testing.T, f *File, method string, args ...uint64) (uint64, time.Duration) {
	t.Helper()
	ret, elapsed, err := execVM(t, f, method, nil, args...)
	if err != nil {
		t.Fatal(err)
	}
	return ret, elapsed
}

// execVM executes method of f on a fresh simulated thread, on a VM that
// setup (if non-nil) prepares, and returns the VM's result and error.
func execVM(t *testing.T, f *File, method string, setup func(*VM), args ...uint64) (uint64, time.Duration, error) {
	t.Helper()
	s := sim.New()
	fs := vfs.New()
	reg := prog.NewRegistry()
	k, err := kernel.New(s, kernel.Config{
		Profile: kernel.ProfileLinuxVanilla, Device: hw.Nexus7(), Root: fs, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.InstallLinuxTable()
	k.RegisterBinFmt(&kernel.ELFLoader{})
	var ret uint64
	var rerr error
	var elapsed time.Duration
	reg.MustRegister("vmhost", func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		vm := NewVM(hw.Nexus7().CPU)
		if setup != nil {
			setup(vm)
		}
		start := th.Now()
		ret, rerr = vm.Run(th, f, method, args...)
		elapsed = th.Now() - start
		return 0
	})
	bin, _ := prog.StaticELF("vmhost")
	fs.WriteFile("/bin/vmhost", bin)
	k.StartProcess("/bin/vmhost", nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return ret, elapsed, rerr
}

// sumLoop builds: for (i=0; i<n; i++) acc+=i; return acc.
func sumLoop() *File {
	m := NewAssembler("main", 6).
		Move(1, 0).  // r1 = n (arg in r0)
		Const(2, 0). // r2 = acc
		Const(3, 0). // r3 = i
		Const(4, 1). // r4 = 1
		Label("loop").
		Op3(OpCmp, 5, 3, 1). // r5 = cmp(i, n)
		If(5, IfGe, "done").
		Op3(OpAdd, 2, 2, 3). // acc += i
		Op3(OpAdd, 3, 3, 4). // i++
		Goto("loop").
		Label("done").
		Return(2).
		MustAssemble()
	return &File{Methods: []Method{m}}
}

func TestSumLoop(t *testing.T) {
	got, _ := runVM(t, sumLoop(), "main", 100)
	if got != 4950 {
		t.Fatalf("sum(0..99) = %d, want 4950", got)
	}
}

func TestArithmetic(t *testing.T) {
	m := NewAssembler("main", 8).
		Const(1, 84).
		Const(2, 2).
		Op3(OpDiv, 3, 1, 2). // 42
		Const(4, 5).
		Op3(OpRem, 5, 3, 4). // 2
		Op3(OpMul, 6, 3, 2). // 84
		Op3(OpSub, 7, 6, 5). // 82
		Return(7).
		MustAssemble()
	got, _ := runVM(t, &File{Methods: []Method{m}}, "main")
	if got != 82 {
		t.Fatalf("got %d, want 82", got)
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	m := NewAssembler("main", 4).
		Const(1, 1).
		Const(2, 0).
		Op3(OpDiv, 3, 1, 2).
		Return(3).
		MustAssemble()
	f := &File{Methods: []Method{m}}
	s := sim.New()
	fs := vfs.New()
	reg := prog.NewRegistry()
	k, _ := kernel.New(s, kernel.Config{Profile: kernel.ProfileLinuxVanilla, Device: hw.Nexus7(), Root: fs, Registry: reg})
	k.InstallLinuxTable()
	k.RegisterBinFmt(&kernel.ELFLoader{})
	var rerr error
	reg.MustRegister("div0", func(c *prog.Call) uint64 {
		vm := NewVM(hw.Nexus7().CPU)
		_, rerr = vm.Run(c.Ctx.(*kernel.Thread), f, "main")
		return 0
	})
	bin, _ := prog.StaticELF("div0")
	fs.WriteFile("/bin/d", bin)
	k.StartProcess("/bin/d", nil)
	s.Run()
	if rerr == nil {
		t.Fatal("divide by zero must error")
	}
}

func TestArrays(t *testing.T) {
	// arr = new[10]; arr[3] = 7; return arr[3] + len(arr).
	m := NewAssembler("main", 8).
		Const(1, 10).
		NewArr(2, 1).
		Const(3, 3).
		Const(4, 7).
		AStore(2, 3, 4).
		ALoad(5, 2, 3).
		ArrLen(6, 2).
		Op3(OpAdd, 7, 5, 6).
		Return(7).
		MustAssemble()
	got, _ := runVM(t, &File{Methods: []Method{m}}, "main")
	if got != 17 {
		t.Fatalf("got %d, want 17", got)
	}
}

func TestArrayBoundsTrap(t *testing.T) {
	m := NewAssembler("main", 4).
		Const(1, 2).
		NewArr(2, 1).
		Const(3, 5).
		ALoad(1, 2, 3).
		Return(1).
		MustAssemble()
	f := &File{Methods: []Method{m}}
	s := sim.New()
	fs := vfs.New()
	reg := prog.NewRegistry()
	k, _ := kernel.New(s, kernel.Config{Profile: kernel.ProfileLinuxVanilla, Device: hw.Nexus7(), Root: fs, Registry: reg})
	k.InstallLinuxTable()
	k.RegisterBinFmt(&kernel.ELFLoader{})
	var rerr error
	reg.MustRegister("oob", func(c *prog.Call) uint64 {
		vm := NewVM(hw.Nexus7().CPU)
		_, rerr = vm.Run(c.Ctx.(*kernel.Thread), f, "main")
		return 0
	})
	bin, _ := prog.StaticELF("oob")
	fs.WriteFile("/bin/o", bin)
	k.StartProcess("/bin/o", nil)
	s.Run()
	if rerr == nil {
		t.Fatal("out-of-bounds access must error")
	}
}

func TestMethodInvoke(t *testing.T) {
	double := NewAssembler("double", 3).
		Op3(OpAdd, 2, 0, 0).
		Return(2).
		MustAssemble()
	main := NewAssembler("main", 4).
		Const(1, 21).
		Move(2, 1).
		Invoke(3, 1, 2, 1). // r3 = double(r2)
		Return(3).
		MustAssemble()
	got, _ := runVM(t, &File{Methods: []Method{main, double}}, "main")
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestDoubleOps(t *testing.T) {
	// d = i2d(7); d = d * d; d = d + d; return int of comparison with 97.
	m := NewAssembler("main", 8).
		Const(1, 7).
		Op3(OpI2D, 2, 1, 0).
		Op3(OpDMul, 3, 2, 2). // 49.0
		Op3(OpDAdd, 4, 3, 3). // 98.0
		Op3(OpDDiv, 5, 4, 2). // 14.0
		Return(5).
		MustAssemble()
	got, _ := runVM(t, &File{Methods: []Method{m}}, "main")
	// 14.0 as float64 bits
	if got != 0x402c000000000000 {
		t.Fatalf("got %#x", got)
	}
}

func TestInterpretationOverheadVsNative(t *testing.T) {
	// The same loop executed as bytecode must be several times slower
	// than the equivalent native arithmetic — the structural cause of the
	// Fig. 6 CPU results.
	const n = 20000
	_, interpreted := runVM(t, sumLoop(), "main", n)
	// Native equivalent on the same CPU: per iteration one cmp, one add,
	// one increment, one branch.
	cpu := hw.Nexus7().CPU
	native := cpu.OpTime(hw.OpIntAdd, 3*n) + cpu.OpTime(hw.OpBranch, 2*n)
	ratio := float64(interpreted) / float64(native)
	if ratio < 2.5 || ratio > 12 {
		t.Fatalf("interpreted/native = %.1fx, want several-fold slowdown", ratio)
	}
}

func TestIntrinsicJNI(t *testing.T) {
	m := NewAssembler("main", 4).
		Const(1, 5).
		Move(2, 1).
		Intrin(3, 9, 2, 1).
		Return(3).
		MustAssemble()
	f := &File{Methods: []Method{m}}
	s := sim.New()
	fs := vfs.New()
	reg := prog.NewRegistry()
	k, _ := kernel.New(s, kernel.Config{Profile: kernel.ProfileLinuxVanilla, Device: hw.Nexus7(), Root: fs, Registry: reg})
	k.InstallLinuxTable()
	k.RegisterBinFmt(&kernel.ELFLoader{})
	var got uint64
	reg.MustRegister("jni", func(c *prog.Call) uint64 {
		th := c.Ctx.(*kernel.Thread)
		vm := NewVM(hw.Nexus7().CPU)
		vm.RegisterIntrinsic(9, func(t *kernel.Thread, args []uint64) uint64 {
			return args[0] * 100
		})
		got, _ = vm.Run(th, f, "main")
		return 0
	})
	bin, _ := prog.StaticELF("jni")
	fs.WriteFile("/bin/j", bin)
	k.StartProcess("/bin/j", nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 500 {
		t.Fatalf("got %d", got)
	}
}

func TestDexRoundTrip(t *testing.T) {
	f := sumLoop()
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Methods) != 1 || g.Methods[0].Name != "main" {
		t.Fatalf("methods = %+v", g.Methods)
	}
	if len(g.Methods[0].Code) != len(f.Methods[0].Code) {
		t.Fatal("code length changed")
	}
	got, _ := runVM(t, g, "main", 10)
	if got != 45 {
		t.Fatalf("re-parsed program broken: %d", got)
	}
}

func TestDexParseErrors(t *testing.T) {
	if _, err := Parse([]byte("not dex")); err == nil {
		t.Fatal("bad magic should fail")
	}
	f := sumLoop()
	b, _ := f.Marshal()
	if _, err := Parse(b[:len(b)-4]); err == nil {
		t.Fatal("truncated dex should fail")
	}
}

// TestDexPropertyRoundTrip: a marshaled method parses back exactly when
// the verifier accepts it, and is rejected with the verifier's error when
// it does not.
func TestDexPropertyRoundTrip(t *testing.T) {
	check := func(name string, regs uint8, code []uint32) bool {
		if len(name) == 0 || len(name) > 40 {
			return true
		}
		f := &File{Methods: []Method{{Name: name, Registers: int(regs), Code: code}}}
		b, err := f.Marshal()
		if err != nil {
			return false
		}
		g, err := Parse(b)
		if verr := f.Methods[0].verify(); verr != nil {
			return err != nil && err.Error() == verr.Error()
		}
		if err != nil || len(g.Methods) != 1 {
			return false
		}
		m := g.Methods[0]
		if m.Name != name || m.Registers != int(regs) || len(m.Code) != len(code) {
			return false
		}
		for i := range code {
			if m.Code[i] != code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	_, err := NewAssembler("bad", 2).Goto("nowhere").Assemble()
	if err == nil {
		t.Fatal("undefined label must fail assembly")
	}
}
