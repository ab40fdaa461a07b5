package dalvik

import "repro/internal/hw"

// opBad is the decoded form of an unknown opcode; the VM traps when it
// reaches one.
const opBad = numOps

// numCPUOps is the number of hw.CPUOp classes.
const numCPUOps = uint8(len(hw.CPUModel{}.CPI))

// Cost classes: what an instruction charges beyond its dispatch. A class
// below numCPUOps is that hw.CPUOp's cycles on the device.
const (
	costFrame = numCPUOps + iota // OpInvoke's frame push/pop
	costJNI                      // OpIntrin's managed->native transition
	costNone                     // nothing, or a cost known only at run time
	numCosts
)

// opCost gives each opcode's cost class.
var opCost = [numOps]uint8{
	OpNop:    costNone,
	OpConst:  uint8(hw.OpIntAdd),
	OpMove:   uint8(hw.OpIntAdd),
	OpAdd:    uint8(hw.OpIntAdd),
	OpSub:    uint8(hw.OpIntAdd),
	OpMul:    uint8(hw.OpIntMul),
	OpDiv:    uint8(hw.OpIntDiv),
	OpRem:    uint8(hw.OpIntDiv),
	OpXor:    uint8(hw.OpIntAdd),
	OpAnd:    uint8(hw.OpIntAdd),
	OpOr:     uint8(hw.OpIntAdd),
	OpShl:    uint8(hw.OpIntAdd),
	OpShr:    uint8(hw.OpIntAdd),
	OpDAdd:   uint8(hw.OpFloatAdd),
	OpDMul:   uint8(hw.OpFloatMul),
	OpDDiv:   uint8(hw.OpFloatDiv),
	OpI2D:    uint8(hw.OpFloatAdd),
	OpCmp:    uint8(hw.OpIntAdd),
	OpIf:     uint8(hw.OpBranch),
	OpGoto:   uint8(hw.OpBranch),
	OpNewArr: costNone, // zeroing, n/8 + 40, is charged when it runs
	OpALoad:  uint8(hw.OpLoad),
	OpAStore: uint8(hw.OpStore),
	OpArrLen: uint8(hw.OpLoad),
	OpInvoke: costFrame,
	OpIntrin: costJNI,
	OpReturn: costNone,
}

// condMask gives each OpIf condition as the set of signs of the tested
// value that take the branch: bit 0 negative, bit 1 zero, bit 2 positive.
// An unknown condition never branches.
var condMask = [...]uint8{IfEq: 2, IfNe: 5, IfLt: 1, IfGe: 6, IfGt: 4, IfLe: 3}

// insn is one decoded instruction. Extension words are folded into x,
// and branch targets index the decoded code.
type insn struct {
	op      uint8
	a, b, c uint8 // operand bytes 1..3
	m       uint8 // OpIf: the condition's sign mask
	cls     uint8 // cost class
	// x is the immediate (OpConst), the target (OpIf, OpGoto), the
	// argument count (OpInvoke, OpIntrin) or, for opBad, the word offset
	// (a holds the raw opcode).
	x int32
	// An insn is 16 bytes, so indexing one is a shift and none straddles
	// a cache line; at 12 bytes fig6's cells ran about 6% slower.
	_ [4]byte
}

// decoded is a verified method in the interpreter's form: compact
// instructions with resolved branch targets.
type decoded struct {
	// code and regs are what it was built from (see fits).
	code []uint32
	regs int
	ins  []insn
}

// decode builds the decoded form of verified code.
func decode(code []uint32, regs int) *decoded {
	at := make([]int32, len(code)+1) // word offset -> decoded index
	ins := make([]insn, 0, len(code))
	for pc := 0; pc < len(code); pc++ {
		w := code[pc]
		in := insn{op: uint8(w), a: uint8(w >> 8), b: uint8(w >> 16), c: uint8(w >> 24)}
		at[pc] = int32(len(ins))
		if in.op >= numOps {
			in.a, in.op, in.cls, in.x = in.op, opBad, costNone, int32(pc)
		} else {
			in.cls = opCost[in.op]
			if shapes[in.op]&(extImm|extTarget|extArgs) != 0 {
				pc++
				in.x = int32(code[pc])
			}
		}
		if in.op == OpIf && int(in.b) < len(condMask) {
			in.m = condMask[in.b]
		}
		ins = append(ins, in)
	}
	at[len(code)] = int32(len(ins))
	for i := range ins {
		if ins[i].op == OpIf || ins[i].op == OpGoto {
			ins[i].x = at[ins[i].x]
		}
	}
	return &decoded{code: code, regs: regs, ins: ins}
}
