package isa

import (
	"math"
	"math/rand"
	"testing"
)

// stepImage is the instruction-image length the single-step checks use: a
// jr or jalr to a register value at or past it leaves the image.
const stepImage = 64

// traceImage returns the trace records of an image of clean words and the
// words ExecTrace reads beside them: the image followed by HaltWord.
func traceImage(words []uint64) (recs, ws []uint64) {
	return TraceRecords(words), append(words[:len(words):len(words)], HaltWord)
}

// stepBoth executes inst at pc on three copies of st: through ExecInto and
// ApplyRef, through a one-instruction ExecTrace over the records of an image
// of stepImage words, and through ExecClean. It fails t unless all three leave registers,
// PC and memory identical and ExecClean's Outcome equals ExecInto's in every
// field, and returns the reference outcome. st.Mem must be a *Memory.
func stepBoth(t *testing.T, inst Instruction, pc uint64, st *ArchState) Outcome {
	t.Helper()
	d := Decode(inst)
	w := d.Pack()
	words := make([]uint64, stepImage)
	words[pc] = w
	recs, ws := traceImage(words)
	mem := st.Mem.(*Memory)

	ref := &ArchState{R: st.R, F: st.F, PC: pc, Mem: mem.Clone()}
	var o Outcome
	ref.ExecInto(&o, d, pc)
	ref.ApplyRef(&o)

	got := &ArchState{R: st.R, F: st.F, PC: pc}
	gotMem := mem.Clone()
	n, sig, ended, halt := got.ExecTrace(gotMem, recs, ws, 1)

	switch {
	case n != 1 || sig != w || ended != d.IsBranching() || halt != o.Halt:
		t.Fatalf("%v: ExecTrace n=%d sig=%#x ended=%v halt=%v, want 1 %#x %v %v",
			inst, n, sig, ended, halt, w, d.IsBranching(), o.Halt)
	case got.R != ref.R:
		t.Fatalf("%v at %d: integer registers differ\n got %x\nwant %x", inst, pc, got.R, ref.R)
	case got.F != ref.F:
		t.Fatalf("%v at %d: fp registers differ\n got %x\nwant %x", inst, pc, got.F, ref.F)
	case got.PC != ref.PC:
		t.Fatalf("%v at %d: PC %d, want %d", inst, pc, got.PC, ref.PC)
	case !gotMem.Equal(ref.Mem.(*Memory)):
		t.Fatalf("%v at %d: memory differs (%v)", inst, pc, o)
	}
	cl := &ArchState{R: st.R, F: st.F, PC: pc, Mem: mem.Clone()}
	var co Outcome
	cl.ExecClean(&co, w, pc)
	switch {
	case co != o:
		t.Fatalf("%v at %d: ExecClean outcome %#v, want %#v", inst, pc, co, o)
	case cl.R != ref.R || cl.F != ref.F || cl.PC != ref.PC:
		t.Fatalf("%v at %d: ExecClean registers or PC differ\n got %x %x %d\nwant %x %x %d",
			inst, pc, cl.R, cl.F, cl.PC, ref.R, ref.F, ref.PC)
	case !cl.Mem.(*Memory).Equal(ref.Mem.(*Memory)):
		t.Fatalf("%v at %d: ExecClean memory differs (%v)", inst, pc, o)
	}
	if got.PC >= stepImage {
		// Past the image every PC decodes as a one-instruction halt trace.
		n, sig, ended, halt := got.ExecTrace(gotMem, recs, ws, MaxTraceLen)
		if n != 1 || sig != HaltWord || ended || !halt || got.PC != ref.PC+1 {
			t.Fatalf("%v: out-of-image PC %d ran n=%d sig=%#x ended=%v halt=%v next=%d",
				inst, ref.PC, n, sig, ended, halt, got.PC)
		}
	}
	return o
}

// operandState returns a machine state whose first operands are a (integer
// rs1, fp rs1) and b (integer rs2, fp rs2), the remaining registers drawn
// from rng, and whose memory holds a word derived from a and b at the
// address inst's memory access (if any) uses, plus a few stray words.
func operandState(rng *rand.Rand, inst Instruction, a, b uint64) *ArchState {
	st := &ArchState{Mem: NewMemory()}
	for i := 1; i < NumRegs; i++ {
		st.R[i] = rng.Uint64()
		st.F[i] = rng.Uint64()
	}
	st.F[0] = rng.Uint64()
	st.F[inst.Rs1&0x1f], st.F[inst.Rs2&0x1f] = a, b
	if inst.Rs1&0x1f != 0 {
		st.R[inst.Rs1&0x1f] = a
	}
	if inst.Rs2&0x1f != 0 {
		st.R[inst.Rs2&0x1f] = b
	}
	mem := st.Mem.(*Memory)
	mem.Store(st.regInt(inst.Rs1)+sx16(inst.Imm), 8, a*0x9e3779b97f4a7c15^b)
	for i := 0; i < 2; i++ {
		mem.Store(rng.Uint64()%(1<<16), 8, rng.Uint64())
	}
	return st
}

// operand draws a register value that makes comparisons interesting: equal
// to other, a small signed value, a float, zero, or random bits.
func operand(rng *rand.Rand, other uint64) uint64 {
	switch rng.Intn(6) {
	case 0:
		return other
	case 1:
		return uint64(rng.Int63n(33) - 16)
	case 2:
		return math.Float64bits(rng.NormFloat64() * 1e3)
	case 3:
		return 0
	case 4:
		return uint64(rng.Intn(2 * stepImage))
	}
	return rng.Uint64()
}

// TestExecTraceMatchesExecInto: for every opcode's clean Decode signals on
// seeded random register and memory states, a one-instruction ExecTrace and
// ExecClean leave registers, PC and memory exactly as ExecInto plus ApplyRef
// do, and ExecClean writes ExecInto's Outcome. The
// draws must reach an r0 destination for every register-writing opcode,
// both directions of every conditional branch, an fp divide by zero, and a
// register-indirect jump out of the image.
func TestExecTraceMatchesExecInto(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var taken, untaken, rd0 [256]bool
	fdivZero, jrOut := false, false
	for op := 0; op < 256; op++ {
		for trial := 0; trial < 200; trial++ {
			inst := Instruction{
				Op:     Opcode(op),
				Rd:     RegID(rng.Intn(NumRegs)),
				Rs1:    RegID(rng.Intn(NumRegs)),
				Rs2:    RegID(rng.Intn(NumRegs)),
				Shamt:  uint8(rng.Intn(32)),
				Imm:    uint16(rng.Uint32()),
				Target: rng.Uint32() & (1<<26 - 1),
			}
			if trial%8 == 0 {
				inst.Rd = 0
			}
			a := operand(rng, 0)
			b := operand(rng, a)
			st := operandState(rng, inst, a, b)
			pc := uint64(rng.Intn(stepImage))
			o := stepBoth(t, inst, pc, st)

			d := Decode(inst)
			if d.HasFlag(FlagBranch) && !d.HasFlag(FlagUncond) {
				taken[op] = taken[op] || o.Taken
				untaken[op] = untaken[op] || !o.Taken
			}
			if d.NumRdst != 0 && inst.Rd == 0 {
				rd0[op] = true
			}
			fdivZero = fdivZero || Opcode(op) == OpFDiv && math.Float64frombits(st.F[inst.Rs2]) == 0
			jrOut = jrOut || Opcode(op) == OpJr && o.NextPC >= stepImage
		}
	}
	for op := Opcode(0); op < numOpcodes; op++ {
		d := Decode(Instruction{Op: op})
		if d.HasFlag(FlagBranch) && !d.HasFlag(FlagUncond) && !(taken[op] && untaken[op]) {
			t.Errorf("%v: taken=%v untaken=%v, want both", op, taken[op], untaken[op])
		}
		if d.NumRdst != 0 && !rd0[op] {
			t.Errorf("%v: no r0 destination drawn", op)
		}
	}
	if !fdivZero || !jrOut {
		t.Errorf("fp divide by zero drawn: %v; jr out of the image drawn: %v", fdivZero, jrOut)
	}
}

// TestExecTraceCases pins the cases the equivalence test must reach with
// hand-picked operands: every load and store width, signed and unsigned,
// the jal/jalr links, lwl/lwr merges, fcvt and fp divide by zero.
func TestExecTraceCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	neg := uint64(0x8000_0000_8000_8080) // every narrow width reads negative
	cases := []struct {
		inst Instruction
		a, b uint64
	}{
		{Instruction{Op: OpLb, Rd: 3, Rs1: 1, Imm: 8}, 0x1000, 0},
		{Instruction{Op: OpLh, Rd: 3, Rs1: 1, Imm: 2}, 0x1000, 0},
		{Instruction{Op: OpLw, Rd: 3, Rs1: 1, Imm: negImm(4)}, 0x1000, 0},
		{Instruction{Op: OpLd, Rd: 3, Rs1: 1}, 0x1000, 0},
		{Instruction{Op: OpLwl, Rd: 3, Rs1: 1, Imm: 5}, 0x1000, 0},
		{Instruction{Op: OpLwr, Rd: 3, Rs1: 1, Imm: 6}, 0x1000, 0},
		{Instruction{Op: OpFLd, Rd: 3, Rs1: 1, Imm: 16}, 0x1000, 0},
		{Instruction{Op: OpSb, Rs1: 1, Rs2: 2, Imm: 3}, 0x1000, neg},
		{Instruction{Op: OpSh, Rs1: 1, Rs2: 2, Imm: 6}, 0x1000, neg},
		{Instruction{Op: OpSw, Rs1: 1, Rs2: 2, Imm: 4}, 0x1000, neg},
		{Instruction{Op: OpSd, Rs1: 1, Rs2: 2}, 0x1000, neg},
		{Instruction{Op: OpFSd, Rs1: 1, Rs2: 2, Imm: 8}, 0x1000, neg},
		{Instruction{Op: OpJal, Rd: 31, Target: 1<<26 - 1}, 0, 0},
		{Instruction{Op: OpJalr, Rd: 31, Rs1: 1}, 7, 0},
		{Instruction{Op: OpJalr, Rd: 1, Rs1: 1}, 9, 0},
		{Instruction{Op: OpJr, Rs1: 1}, 1 << 40, 0},
		{Instruction{Op: OpFCvt, Rd: 4, Rs1: 1}, uint64(1<<63 | 5), 0},
		{Instruction{Op: OpFDiv, Rd: 4, Rs1: 1, Rs2: 2}, math.Float64bits(3), math.Float64bits(0)},
		{Instruction{Op: OpFDiv, Rd: 4, Rs1: 1, Rs2: 2}, math.Float64bits(3), math.Float64bits(math.Copysign(0, -1))},
		{Instruction{Op: OpAdd, Rd: 0, Rs1: 1, Rs2: 2}, 5, 6},
		{Instruction{Op: OpHalt}, 0, 0},
	}
	for _, c := range cases {
		for _, signed := range []uint64{0, neg} {
			st := operandState(rng, c.inst, c.a, c.b)
			st.Mem.Store(c.a&^7, 8, signed)
			st.Mem.Store(c.a+8, 8, ^signed)
			stepBoth(t, c.inst, 3, st)
		}
	}
}

// TestExecTraceStops: a trace ends where EndsTrace ends it (its first
// branching instruction or its MaxTraceLen-th), and stops early at a halt,
// at the halt past the image end, or at the caller's limit; a PC outside the
// image runs one halt; its signature is the XOR of the words it executed.
func TestExecTraceStops(t *testing.T) {
	add := Decode(Instruction{Op: OpAddi, Rd: 1, Rs1: 1, Imm: 1}).Pack()
	image := func(n int, last Instruction) []uint64 {
		words := make([]uint64, n)
		for i := range words {
			words[i] = add
		}
		words[n-1] = Decode(last).Pack()
		return words
	}
	beq := Instruction{Op: OpBeq, Imm: negImm(4)}
	cases := []struct {
		name        string
		words       []uint64
		start       uint64
		max         int
		n           int
		ended, halt bool
		next        uint64
	}{
		{"branch", image(5, beq), 0, 16, 5, true, false, 1},
		{"halt", image(3, Instruction{Op: OpHalt}), 0, 16, 3, false, true, 3},
		{"full", image(40, beq), 0, 40, MaxTraceLen, true, false, MaxTraceLen},
		{"branch-mid-image", image(40, beq), 30, 16, 10, true, false, 36},
		{"halt-16th", image(MaxTraceLen, Instruction{Op: OpHalt}), 0, 16, MaxTraceLen, true, true, MaxTraceLen},
		{"limit", image(40, beq), 0, 7, 7, false, false, 7},
		{"limit-16", image(40, beq), 20, 16, MaxTraceLen, true, false, 36},
		{"off-image", image(4, Instruction{Op: OpAddi}), 0, 16, 5, false, true, 5},
		{"off-image-16th", image(MaxTraceLen-1, Instruction{Op: OpAddi}), 0, 16, MaxTraceLen, true, true, MaxTraceLen},
		{"at-image-end", image(4, beq), 4, 16, 1, false, true, 5},
		{"outside", image(4, beq), 1 << 40, 16, 1, false, true, 1<<40 + 1},
	}
	for _, c := range cases {
		st := &ArchState{PC: c.start}
		recs, ws := traceImage(c.words)
		n, sig, ended, halt := st.ExecTrace(NewMemory(), recs, ws, c.max)
		want, adds := uint64(0), uint64(0)
		for pc := c.start; pc < c.start+uint64(c.n); pc++ {
			w := HaltWord
			if pc < uint64(len(c.words)) {
				w = c.words[pc]
			}
			want ^= w
			if w == add {
				adds++
			}
		}
		if n != c.n || sig != want || ended != c.ended || halt != c.halt || st.PC != c.next {
			t.Errorf("%s: n=%d sig=%#x ended=%v halt=%v pc=%d, want %d %#x %v %v %d",
				c.name, n, sig, ended, halt, st.PC, c.n, want, c.ended, c.halt, c.next)
		}
		if st.R[1] != adds {
			t.Errorf("%s: r1=%d after %d addi", c.name, st.R[1], adds)
		}
	}
}

// TestEndsTrace: the trace-formation rule ends a trace at a branching word
// or at the MaxTraceLen-th word, and a halt ends it only as the 16th word.
func TestEndsTrace(t *testing.T) {
	word := func(op Opcode) uint64 { return Decode(Instruction{Op: op}).Pack() }
	cases := []struct {
		name string
		w    uint64
		n    int
		want bool
	}{
		{"add-first", word(OpAdd), 1, false},
		{"add-15th", word(OpAdd), MaxTraceLen - 1, false},
		{"add-16th", word(OpAdd), MaxTraceLen, true},
		{"beq-first", word(OpBeq), 1, true},
		{"jr-mid", word(OpJr), 7, true},
		{"j-16th", word(OpJ), MaxTraceLen, true},
		{"halt-first", HaltWord, 1, false},
		{"halt-15th", HaltWord, MaxTraceLen - 1, false},
		{"halt-16th", HaltWord, MaxTraceLen, true},
	}
	for _, c := range cases {
		if got := EndsTrace(c.w, c.n); got != c.want {
			t.Errorf("%s: EndsTrace(%#x, %d) = %v, want %v", c.name, c.w, c.n, got, c.want)
		}
	}
}

// FuzzSignals checks that every 64-bit word survives an unpack/pack round
// trip, and that both clean-word executors agree with ExecInto plus ApplyRef
// on the instruction w encodes, with x and y as its source operands: ExecTrace
// on registers, PC and memory, ExecClean on those and the whole Outcome.
func FuzzSignals(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, x, y uint64) {
		if got := UnpackSignals(w).Pack(); got != w {
			t.Fatalf("UnpackSignals(%#x).Pack() = %#x", w, got)
		}
		inst := Instruction{
			Op:     Opcode(w),
			Rd:     RegID(w>>8) & 0x1f,
			Rs1:    RegID(w>>13) & 0x1f,
			Rs2:    RegID(w>>18) & 0x1f,
			Shamt:  uint8(w>>23) & 0x1f,
			Imm:    uint16(w >> 28),
			Target: uint32(w>>38) & (1<<26 - 1),
		}
		rng := rand.New(rand.NewSource(int64(x ^ y)))
		stepBoth(t, inst, (x^y)%stepImage, operandState(rng, inst, x, y))
	})
}
