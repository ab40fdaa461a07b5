package passmark

import "repro/internal/dalvik"

// AppDex assembles the Android PassMark app's bytecode: the CPU and
// memory workloads as genuine DEX methods the Dalvik VM interprets. The
// method bodies are the same algorithms the native iOS build runs
// (native.go); equivalence is asserted by tests via their checksums. Each
// call builds a new File.
func AppDex() (*dalvik.File, error) {
	methods := []func() (dalvik.Method, error){
		dexInteger, dexFloating, dexPrimes, dexStringSort,
		dexEncrypt, dexCompress, dexMemWrite, dexMemRead,
	}
	f := &dalvik.File{}
	for _, mk := range methods {
		m, err := mk()
		if err != nil {
			return nil, err
		}
		f.Methods = append(f.Methods, m)
	}
	return f, nil
}

// dexInteger: the integer math loop — adds, multiplies, divides, shifts.
// arg r0 = iterations; returns a checksum.
func dexInteger() (dalvik.Method, error) {
	return dalvik.NewAssembler("integer", 12).
		Const(1, 0).     // acc
		Const(2, 0).     // i
		Const(3, 1).     // 1
		Const(4, 12345). // a
		Const(5, 7).     // b
		Label("loop").
		Op3(dalvik.OpCmp, 6, 2, 0).
		If(6, dalvik.IfGe, "done").
		Op3(dalvik.OpAdd, 1, 1, 4).
		Op3(dalvik.OpMul, 7, 2, 5).
		Op3(dalvik.OpXor, 1, 1, 7).
		Op3(dalvik.OpDiv, 8, 4, 5).
		Op3(dalvik.OpAdd, 1, 1, 8).
		Op3(dalvik.OpShl, 9, 2, 3).
		Op3(dalvik.OpOr, 1, 1, 9).
		Op3(dalvik.OpAdd, 2, 2, 3).
		Goto("loop").
		Label("done").
		Return(1).
		Assemble()
}

// dexFloating: the floating point loop — double mul/add/div chains.
// arg r0 = iterations; returns the f64 bits of the accumulator.
func dexFloating() (dalvik.Method, error) {
	return dalvik.NewAssembler("floating", 12).
		Const(1, 10001).
		Const(2, 10000).
		Op3(dalvik.OpI2D, 3, 1, 0).  // 10001.0
		Op3(dalvik.OpI2D, 4, 2, 0).  // 10000.0
		Op3(dalvik.OpDDiv, 5, 3, 4). // 1.0001
		Const(6, 1).
		Op3(dalvik.OpI2D, 7, 6, 0). // acc = 1.0
		Const(8, 0).                // i
		Label("loop").
		Op3(dalvik.OpCmp, 9, 8, 0).
		If(9, dalvik.IfGe, "done").
		Op3(dalvik.OpDMul, 7, 7, 5).
		Op3(dalvik.OpDAdd, 7, 7, 5).
		Op3(dalvik.OpDDiv, 7, 7, 5).
		Op3(dalvik.OpAdd, 8, 8, 6).
		Goto("loop").
		Label("done").
		Return(7).
		Assemble()
}

// dexPrimes: trial-division prime counting; arg r0 = N; returns count.
func dexPrimes() (dalvik.Method, error) {
	return dalvik.NewAssembler("primes", 12).
		Const(1, 0). // count
		Const(2, 2). // i
		Const(3, 1). // 1
		Label("outer").
		Op3(dalvik.OpCmp, 4, 2, 0).
		If(4, dalvik.IfGe, "done").
		Const(5, 2). // j
		Const(6, 1). // prime flag
		Label("inner").
		Op3(dalvik.OpMul, 7, 5, 5).
		Op3(dalvik.OpCmp, 8, 7, 2).
		If(8, dalvik.IfGt, "innerdone").
		Op3(dalvik.OpRem, 9, 2, 5).
		If(9, dalvik.IfEq, "notprime").
		Op3(dalvik.OpAdd, 5, 5, 3).
		Goto("inner").
		Label("notprime").
		Const(6, 0).
		Label("innerdone").
		Op3(dalvik.OpAdd, 1, 1, 6).
		Op3(dalvik.OpAdd, 2, 2, 3).
		Goto("outer").
		Label("done").
		Return(1).
		Assemble()
}

// dexStringSort: fill an array of n pseudo-random keys (the "random
// string" sort keys) and bubble-sort it; arg r0 = n; returns a checksum.
func dexStringSort() (dalvik.Method, error) {
	return dalvik.NewAssembler("stringsort", 16).
		NewArr(1, 0).    // arr[n]
		Const(2, 12345). // seed
		Const(3, 1103515245).
		Const(4, 65535).
		Const(5, 1).
		Const(6, 0). // i
		Label("fill").
		Op3(dalvik.OpCmp, 7, 6, 0).
		If(7, dalvik.IfGe, "sort").
		Op3(dalvik.OpMul, 2, 2, 3).
		Const(8, 12345).
		Op3(dalvik.OpAdd, 2, 2, 8).
		Op3(dalvik.OpAnd, 9, 2, 4).
		AStore(1, 6, 9).
		Op3(dalvik.OpAdd, 6, 6, 5).
		Goto("fill").
		Label("sort").
		// pass counter r10 = 0; limit n-1.
		Const(10, 0).
		Op3(dalvik.OpSub, 11, 0, 5). // n-1
		Label("pass").
		Op3(dalvik.OpCmp, 7, 10, 11).
		If(7, dalvik.IfGe, "sum").
		Const(6, 0). // j
		Label("bubble").
		Op3(dalvik.OpCmp, 7, 6, 11).
		If(7, dalvik.IfGe, "passnext").
		ALoad(12, 1, 6).
		Op3(dalvik.OpAdd, 8, 6, 5).
		ALoad(13, 1, 8).
		Op3(dalvik.OpCmp, 7, 12, 13).
		If(7, dalvik.IfLe, "noswap").
		AStore(1, 6, 13).
		AStore(1, 8, 12).
		Label("noswap").
		Op3(dalvik.OpAdd, 6, 6, 5).
		Goto("bubble").
		Label("passnext").
		Op3(dalvik.OpAdd, 10, 10, 5).
		Goto("pass").
		Label("sum").
		Const(6, 0).
		Const(14, 0). // checksum
		Label("sumloop").
		Op3(dalvik.OpCmp, 7, 6, 0).
		If(7, dalvik.IfGe, "done").
		ALoad(12, 1, 6).
		Op3(dalvik.OpAdd, 14, 14, 12).
		Op3(dalvik.OpAdd, 6, 6, 5).
		Goto("sumloop").
		Label("done").
		Return(14).
		Assemble()
}

// dexEncrypt: RC4-style keystream generation; arg r0 = bytes; returns a
// checksum of the stream.
func dexEncrypt() (dalvik.Method, error) {
	return dalvik.NewAssembler("encrypt", 16).
		Const(1, 256).
		NewArr(2, 1). // state S[256]
		Const(3, 1).
		Const(4, 0). // i
		Label("init").
		Op3(dalvik.OpCmp, 5, 4, 1).
		If(5, dalvik.IfGe, "stream").
		AStore(2, 4, 4). // S[i] = i
		Op3(dalvik.OpAdd, 4, 4, 3).
		Goto("init").
		Label("stream").
		Const(4, 0). // i
		Const(6, 0). // j
		Const(7, 0). // n (bytes produced)
		Const(8, 255).
		Const(14, 0). // checksum
		Label("loop").
		Op3(dalvik.OpCmp, 5, 7, 0).
		If(5, dalvik.IfGe, "done").
		Op3(dalvik.OpAdd, 4, 4, 3).
		Op3(dalvik.OpAnd, 4, 4, 8). // i = (i+1)&255
		ALoad(9, 2, 4).             // S[i]
		Op3(dalvik.OpAdd, 6, 6, 9).
		Op3(dalvik.OpAnd, 6, 6, 8). // j = (j+S[i])&255
		ALoad(10, 2, 6).            // S[j]
		AStore(2, 4, 10).           // swap
		AStore(2, 6, 9).
		Op3(dalvik.OpAdd, 11, 9, 10).
		Op3(dalvik.OpAnd, 11, 11, 8).
		ALoad(12, 2, 11). // k = S[(S[i]+S[j])&255]
		Op3(dalvik.OpXor, 14, 14, 12).
		Op3(dalvik.OpAdd, 7, 7, 3).
		Goto("loop").
		Label("done").
		Return(14).
		Assemble()
}

// dexCompress: run-length scan over pseudo-random data; arg r0 = bytes;
// returns the run count.
func dexCompress() (dalvik.Method, error) {
	return dalvik.NewAssembler("compress", 16).
		Const(1, 0).     // runs
		Const(2, -1).    // prev
		Const(3, 12345). // seed
		Const(4, 1103515245).
		Const(5, 7). // value mask: few distinct symbols -> real runs
		Const(6, 1).
		Const(7, 0). // i
		Label("loop").
		Op3(dalvik.OpCmp, 8, 7, 0).
		If(8, dalvik.IfGe, "done").
		Op3(dalvik.OpMul, 3, 3, 4).
		Const(9, 12345).
		Op3(dalvik.OpAdd, 3, 3, 9).
		Const(10, 16).
		Op3(dalvik.OpShr, 11, 3, 10).
		Op3(dalvik.OpAnd, 11, 11, 5). // value in 0..7
		Op3(dalvik.OpSub, 12, 11, 2). // value - prev
		If(12, dalvik.IfEq, "same").
		Op3(dalvik.OpAdd, 1, 1, 6). // new run
		Move(2, 11).                // prev = value
		Label("same").
		Op3(dalvik.OpAdd, 7, 7, 6).
		Goto("loop").
		Label("done").
		Return(1).
		Assemble()
}

// dexMemWrite: streaming stores over a buffer; arg r0 = elements; 8
// passes. Returns 0.
func dexMemWrite() (dalvik.Method, error) {
	return dalvik.NewAssembler("memwrite", 12).
		NewArr(1, 0).
		Const(2, 1).
		Const(3, 0). // pass
		Const(4, 8). // passes
		Label("pass").
		Op3(dalvik.OpCmp, 5, 3, 4).
		If(5, dalvik.IfGe, "done").
		Const(6, 0). // i
		Label("loop").
		Op3(dalvik.OpCmp, 5, 6, 0).
		If(5, dalvik.IfGe, "next").
		AStore(1, 6, 6).
		Op3(dalvik.OpAdd, 6, 6, 2).
		Goto("loop").
		Label("next").
		Op3(dalvik.OpAdd, 3, 3, 2).
		Goto("pass").
		Label("done").
		Const(7, 0).
		Return(7).
		Assemble()
}

// dexMemRead: one fill pass then 8 read passes; arg r0 = elements;
// returns the final sum.
func dexMemRead() (dalvik.Method, error) {
	return dalvik.NewAssembler("memread", 12).
		NewArr(1, 0).
		Const(2, 1).
		Const(6, 0).
		Label("fill").
		Op3(dalvik.OpCmp, 5, 6, 0).
		If(5, dalvik.IfGe, "reads").
		AStore(1, 6, 6).
		Op3(dalvik.OpAdd, 6, 6, 2).
		Goto("fill").
		Label("reads").
		Const(3, 0). // pass
		Const(4, 8).
		Const(8, 0). // sum
		Label("pass").
		Op3(dalvik.OpCmp, 5, 3, 4).
		If(5, dalvik.IfGe, "done").
		Const(6, 0).
		Label("loop").
		Op3(dalvik.OpCmp, 5, 6, 0).
		If(5, dalvik.IfGe, "next").
		ALoad(7, 1, 6).
		Op3(dalvik.OpAdd, 8, 8, 7).
		Op3(dalvik.OpAdd, 6, 6, 2).
		Goto("loop").
		Label("next").
		Op3(dalvik.OpAdd, 3, 3, 2).
		Goto("pass").
		Label("done").
		Return(8).
		Assemble()
}
