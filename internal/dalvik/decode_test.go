package dalvik

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hw"
)

// TestDecode checks the decoded form of sumLoop: one instruction per
// bytecode, extension words folded in, and branch targets indexing the
// decoded code.
func TestDecode(t *testing.T) {
	d := sumLoop().Methods[0].dec
	if d == nil {
		t.Fatal("Assemble left no decoded form")
	}
	var ops []uint8
	for _, in := range d.ins {
		ops = append(ops, in.op)
	}
	if want := []uint8{OpMove, OpConst, OpConst, OpConst, OpCmp, OpIf, OpAdd, OpAdd, OpGoto, OpReturn}; !slices.Equal(ops, want) {
		t.Fatalf("decoded ops %v, want %v", ops, want)
	}
	if d.ins[5].x != 9 || d.ins[8].x != 4 {
		t.Errorf("targets %d, %d, want 9, 4", d.ins[5].x, d.ins[8].x)
	}
	if d.ins[5].m != condMask[IfGe] {
		t.Errorf("If mask %03b, want %03b", d.ins[5].m, condMask[IfGe])
	}
}

// TestDecodedFollowsCode runs Methods built without Parse or Assemble: Run
// verifies and decodes them without writing to the File, rejects one that
// fails verification, and decodes again when the Code or the frame size
// changes.
func TestDecodedFollowsCode(t *testing.T) {
	vm := NewVM(hw.Nexus7().CPU)
	vm.hook = func(time.Duration) {}
	f := &File{Methods: []Method{{Name: "main", Registers: 2, Code: []uint32{ins(OpConst, 0, 0, 0), 5, ins(OpReturn, 0, 0, 0)}}}}
	if got, err := vm.Run(nil, f, "main"); err != nil || got != 5 {
		t.Fatalf("first code: %d, %v; want 5", got, err)
	}
	if f.Methods[0].dec != nil {
		t.Fatal("Run stored a decoded form in the File")
	}
	f.Methods[0].Code = []uint32{ins(OpConst, 1, 0, 0), 7, ins(OpReturn, 1, 0, 0)}
	if got, err := vm.Run(nil, f, "main"); err != nil || got != 7 {
		t.Fatalf("new code: %d, %v; want 7", got, err)
	}
	f.Methods[0].Registers = 1
	if _, err := vm.Run(nil, f, "main"); err == nil || !strings.Contains(err.Error(), "out of frame") {
		t.Fatalf("shrunk frame: error %v, want the verifier's", err)
	}
}

// TestSharedFileConcurrentRuns runs one assembled File, and one built by
// hand, from several goroutines, each with its own VM, on two CPUs: Run
// only reads a shared File. Run it with -race.
func TestSharedFileConcurrentRuns(t *testing.T) {
	assembled := sumLoop()
	m := assembled.Methods[0]
	byHand := &File{Methods: []Method{{Name: m.Name, Registers: m.Registers, Code: m.Code}}}
	files := []*File{assembled, byHand}
	cpus := []*hw.CPUModel{hw.Nexus7().CPU, hw.IPadMini().CPU}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(cpu *hw.CPUModel, f *File) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if d := differ(cpu, f, "main", nil, 5000); d != "" {
					t.Error(d)
					return
				}
			}
		}(cpus[g%2], files[g/2])
	}
	wg.Wait()
}
