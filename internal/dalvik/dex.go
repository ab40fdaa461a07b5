// Package dalvik implements the Android app execution substrate: a
// register-based DEX-like bytecode format and the interpreting virtual
// machine that runs it. This is what makes Fig. 6's headline comparison
// structural rather than asserted: the Android PassMark app really is
// bytecode executed instruction-by-instruction (paying a dispatch cost per
// instruction), while the iOS app is native code paying only the
// arithmetic cost — "the Android version is written in Java and
// interpreted through the Dalvik VM while the iOS version is written in
// Objective-C and compiled and run as a native binary" (Section 6.3).
package dalvik

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Opcodes. Instructions are 32-bit words: op in byte 0, operands in bytes
// 1..3; CONST takes one extension word.
const (
	OpNop uint8 = iota
	// OpConst rd <- imm32 (next word).
	OpConst
	// OpMove rd <- rs.
	OpMove
	// Integer ALU: rd <- ra op rb.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpXor
	OpAnd
	OpOr
	OpShl
	OpShr
	// Double ALU (registers hold IEEE-754 bits): rd <- ra op rb.
	OpDAdd
	OpDMul
	OpDDiv
	// OpI2D rd <- double(rs).
	OpI2D
	// OpCmp rd <- sign(ra - rb) as int64.
	OpCmp
	// OpIf rs cond ±off (branch if rs cond 0).
	OpIf
	// OpGoto ±off.
	OpGoto
	// OpNewArr rd <- new array of rs elements.
	OpNewArr
	// OpALoad rd <- arr[idx] (rd, rarr, ridx).
	OpALoad
	// OpAStore arr[idx] <- rs (rarr, ridx, rs).
	OpAStore
	// OpArrLen rd <- len(arr) (rd, rarr).
	OpArrLen
	// OpInvoke rd <- call method[imm in byte2] passing regs [byte3 ...).
	// Encoded as op, rd, methodIdx, firstArg; arg count in ext word.
	OpInvoke
	// OpIntrin rd <- host intrinsic (JNI-style native call).
	OpIntrin
	// OpReturn rs.
	OpReturn
	numOps
)

// Branch conditions for OpIf (byte 2).
const (
	IfEq uint8 = iota
	IfNe
	IfLt
	IfGe
	IfGt
	IfLe
)

// Method is one dex method body.
type Method struct {
	// Name is the method's identifier ("main", "computePrimes").
	Name string
	// Registers is the frame size.
	Registers int
	// Code is the instruction stream. The VM runs a decoded form of it,
	// so Code must not be modified in place once the method has been
	// assembled, parsed or run: assign a new slice instead.
	Code []uint32

	// dec is the decoded form verify builds (see VM.decoded).
	dec *decoded
}

// File is a parsed or under-construction dex container.
type File struct {
	// Methods in index order (OpInvoke references by index).
	Methods []Method
}

// MethodIndex returns the index of the named method.
func (f *File) MethodIndex(name string) (int, bool) {
	for i := range f.Methods {
		if f.Methods[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// dexMagic mirrors the real container magic ("dex\n035\0").
var dexMagic = []byte("dex\n035\x00")

// Marshal encodes the container.
func (f *File) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(dexMagic)
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(uint32(len(f.Methods)))
	for _, m := range f.Methods {
		if len(m.Name) > 255 {
			return nil, fmt.Errorf("dalvik: method name too long")
		}
		buf.WriteByte(uint8(len(m.Name)))
		buf.WriteString(m.Name)
		w(uint16(m.Registers))
		w(uint32(len(m.Code)))
		for _, insn := range m.Code {
			w(insn)
		}
	}
	return buf.Bytes(), nil
}

// Parse decodes a dex container.
func Parse(b []byte) (*File, error) {
	if len(b) < len(dexMagic) || !bytes.Equal(b[:len(dexMagic)], dexMagic) {
		return nil, fmt.Errorf("dalvik: bad dex magic")
	}
	r := bytes.NewReader(b[len(dexMagic):])
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var nm uint32
	if err := rd(&nm); err != nil {
		return nil, err
	}
	if nm > 1<<16 {
		return nil, fmt.Errorf("dalvik: implausible method count %d", nm)
	}
	f := &File{}
	for i := uint32(0); i < nm; i++ {
		var nameLen uint8
		if err := rd(&nameLen); err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := r.Read(name); err != nil {
			return nil, err
		}
		var regs uint16
		var codeLen uint32
		if err := rd(&regs); err != nil {
			return nil, err
		}
		if err := rd(&codeLen); err != nil {
			return nil, err
		}
		if codeLen > 1<<22 {
			return nil, fmt.Errorf("dalvik: implausible code length %d", codeLen)
		}
		code := make([]uint32, codeLen)
		for j := range code {
			if err := rd(&code[j]); err != nil {
				return nil, err
			}
		}
		m := Method{Name: string(name), Registers: int(regs), Code: code}
		if err := m.verify(); err != nil {
			return nil, err
		}
		f.Methods = append(f.Methods, m)
	}
	return f, nil
}

// Operand shape bits: which instruction bytes name registers, and what
// the extension word (if any) holds.
const (
	useB1 uint8 = 1 << iota
	useB2
	useB3
	extImm    // an immediate
	extTarget // a branch target
	extArgs   // a call's argument count; byte 3 is the first argument
)

// shapes gives each opcode's operand shape. Unknown opcodes have none:
// the VM traps on them when it reaches one.
var shapes = [numOps]uint8{
	OpNop:    0,
	OpConst:  useB1 | extImm,
	OpMove:   useB1 | useB2,
	OpAdd:    useB1 | useB2 | useB3,
	OpSub:    useB1 | useB2 | useB3,
	OpMul:    useB1 | useB2 | useB3,
	OpDiv:    useB1 | useB2 | useB3,
	OpRem:    useB1 | useB2 | useB3,
	OpXor:    useB1 | useB2 | useB3,
	OpAnd:    useB1 | useB2 | useB3,
	OpOr:     useB1 | useB2 | useB3,
	OpShl:    useB1 | useB2 | useB3,
	OpShr:    useB1 | useB2 | useB3,
	OpDAdd:   useB1 | useB2 | useB3,
	OpDMul:   useB1 | useB2 | useB3,
	OpDDiv:   useB1 | useB2 | useB3,
	OpI2D:    useB1 | useB2,
	OpCmp:    useB1 | useB2 | useB3,
	OpIf:     useB1 | extTarget,
	OpGoto:   extTarget,
	OpNewArr: useB1 | useB2,
	OpALoad:  useB1 | useB2 | useB3,
	OpAStore: useB1 | useB2 | useB3,
	OpArrLen: useB1 | useB2,
	OpInvoke: useB1 | extArgs,
	OpIntrin: useB1 | extArgs,
	OpReturn: useB1,
}

// verify checks m (see check) and keeps its decoded form in m. Parse and
// Assemble call it before a method is shared.
func (m *Method) verify() error {
	d, err := m.check()
	if err != nil {
		return err
	}
	m.dec = d
	return nil
}

// check is the bytecode verifier: it checks that m's code cannot leave
// its frame or its code. Every register operand is below Registers, every
// extension word lies inside the code, every branch lands on the start of
// an instruction (or just past the last, which returns 0), and every
// call's argument window fits the frame. Parse and Assemble verify every
// method and the VM checks any other before it runs it, so the
// interpreter loop relies on these facts instead of checking them per
// instruction. A method that passes gets its decoded form.
func (m *Method) check() (*decoded, error) {
	code := m.Code
	start := make([]bool, len(code)+1)
	start[len(code)] = true
	var branches []int // the pc of each branch's target word
	for pc := 0; pc < len(code); pc++ {
		start[pc] = true
		w := code[pc]
		op := uint8(w)
		if op >= numOps {
			continue
		}
		shape := shapes[op]
		for i, bit := range [3]uint8{useB1, useB2, useB3} {
			if shape&bit != 0 {
				if r := int(uint8(w >> (8 * (i + 1)))); r >= m.Registers {
					return nil, fmt.Errorf("dalvik: register v%d out of frame (%d) at %d in %s", r, m.Registers, pc, m.Name)
				}
			}
		}
		if shape&(extImm|extTarget|extArgs) == 0 {
			continue
		}
		if pc+1 >= len(code) {
			return nil, fmt.Errorf("dalvik: truncated instruction at %d in %s", pc, m.Name)
		}
		pc++
		if shape&extTarget != 0 {
			branches = append(branches, pc)
		}
		if shape&extArgs != 0 {
			if first, n := int(uint8(w>>24)), code[pc]; uint64(first)+uint64(n) > uint64(m.Registers) {
				return nil, fmt.Errorf("dalvik: %d arguments from v%d overrun the frame (%d) at %d in %s", n, first, m.Registers, pc-1, m.Name)
			}
		}
	}
	for _, pc := range branches {
		if t := int(int32(code[pc])); t < 0 || t > len(code) || !start[t] {
			return nil, fmt.Errorf("dalvik: bad branch target %d at %d in %s", t, pc-1, m.Name)
		}
	}
	return decode(code, m.Registers), nil
}

// fits reports whether d was decoded from m's current Code and Registers.
func (d *decoded) fits(m *Method) bool {
	return d != nil && d.regs == m.Registers && len(d.code) == len(m.Code) &&
		(len(m.Code) == 0 || &d.code[0] == &m.Code[0])
}

// ins packs an instruction word.
func ins(op, b1, b2, b3 uint8) uint32 {
	return uint32(op) | uint32(b1)<<8 | uint32(b2)<<16 | uint32(b3)<<24
}

// Assembler builds method bodies with labels.
type Assembler struct {
	name   string
	regs   int
	code   []uint32
	labels map[string]int
	// fixups are (instruction index, label) pairs; the branch offset is
	// patched into the instruction's ext word at Assemble time.
	fixups []fixup
}

type fixup struct {
	at    int
	label string
}

// NewAssembler starts a method with the given frame size.
func NewAssembler(name string, registers int) *Assembler {
	return &Assembler{name: name, regs: registers, labels: map[string]int{}}
}

// Label marks the current position.
func (a *Assembler) Label(l string) *Assembler {
	a.labels[l] = len(a.code)
	return a
}

// Const loads an immediate.
func (a *Assembler) Const(rd uint8, imm int32) *Assembler {
	a.code = append(a.code, ins(OpConst, rd, 0, 0), uint32(imm))
	return a
}

// Move copies a register.
func (a *Assembler) Move(rd, rs uint8) *Assembler {
	a.code = append(a.code, ins(OpMove, rd, rs, 0))
	return a
}

// Op3 emits a three-register ALU instruction.
func (a *Assembler) Op3(op, rd, ra, rb uint8) *Assembler {
	a.code = append(a.code, ins(op, rd, ra, rb))
	return a
}

// If branches to label when rs cond 0.
func (a *Assembler) If(rs uint8, cond uint8, label string) *Assembler {
	a.code = append(a.code, ins(OpIf, rs, cond, 0), 0)
	a.fixups = append(a.fixups, fixup{at: len(a.code) - 1, label: label})
	return a
}

// Goto jumps to label.
func (a *Assembler) Goto(label string) *Assembler {
	a.code = append(a.code, ins(OpGoto, 0, 0, 0), 0)
	a.fixups = append(a.fixups, fixup{at: len(a.code) - 1, label: label})
	return a
}

// NewArr allocates an array of rs elements into rd.
func (a *Assembler) NewArr(rd, rsize uint8) *Assembler {
	a.code = append(a.code, ins(OpNewArr, rd, rsize, 0))
	return a
}

// ALoad loads arr[idx].
func (a *Assembler) ALoad(rd, rarr, ridx uint8) *Assembler {
	a.code = append(a.code, ins(OpALoad, rd, rarr, ridx))
	return a
}

// AStore stores arr[idx] = rs.
func (a *Assembler) AStore(rarr, ridx, rs uint8) *Assembler {
	a.code = append(a.code, ins(OpAStore, rarr, ridx, rs))
	return a
}

// ArrLen loads an array's length.
func (a *Assembler) ArrLen(rd, rarr uint8) *Assembler {
	a.code = append(a.code, ins(OpArrLen, rd, rarr, 0))
	return a
}

// Invoke calls method midx with nargs args starting at firstArg; the
// result lands in rd.
func (a *Assembler) Invoke(rd uint8, midx uint8, firstArg uint8, nargs uint8) *Assembler {
	a.code = append(a.code, ins(OpInvoke, rd, midx, firstArg), uint32(nargs))
	return a
}

// Intrin calls host intrinsic id with nargs args starting at firstArg.
func (a *Assembler) Intrin(rd uint8, id uint8, firstArg uint8, nargs uint8) *Assembler {
	a.code = append(a.code, ins(OpIntrin, rd, id, firstArg), uint32(nargs))
	return a
}

// Return ends the method.
func (a *Assembler) Return(rs uint8) *Assembler {
	a.code = append(a.code, ins(OpReturn, rs, 0, 0))
	return a
}

// Assemble resolves labels and produces the method.
func (a *Assembler) Assemble() (Method, error) {
	code := append([]uint32(nil), a.code...)
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return Method{}, fmt.Errorf("dalvik: undefined label %q in %s", f.label, a.name)
		}
		code[f.at] = uint32(int32(target))
	}
	m := Method{Name: a.name, Registers: a.regs, Code: code}
	if err := m.verify(); err != nil {
		return Method{}, err
	}
	return m, nil
}

// MustAssemble is Assemble that panics (for static program construction).
func (a *Assembler) MustAssemble() Method {
	m, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return m
}
