package isa

import "math"

// Trace records: the predecoded form functional trace streams run from.
//
// From a given start PC a trace's instructions are fixed (paper Section 1):
// it runs up to its first branching instruction or its MaxTraceLen-th. A
// functional stream re-executes the same static traces over and over, so
// TraceRecords works out once per static instruction everything ExecTrace
// would otherwise derive per dynamic instruction: which operation to run,
// its operand fields, its immediate in the form the operation uses, and the
// length of the static trace that starts at its PC. One record is one
// uint64:
//
//	bits  0-5   fused kind (recKind)
//	bits  6-10  rd
//	bits 11-15  rs1
//	bits 16-20  rs2
//	bits 21-25  length (1-16) of the static trace starting here
//	bits 32-63  operand: the sign- or zero-extended imm16, lui's value, the
//	            direct target or the shift amount, as a signed 32-bit value
//	            (lui's is read unsigned)
const (
	recRd  = 6
	recRs1 = 11
	recRs2 = 16
	recLen = 21
	recImm = 32
)

// recKind is a record's fused execution kind: one per operation, so one
// per load and store width and sign and per FP op. Every clean opcode maps
// to one (fusedOps), so the executor needs one dense switch and no second
// dispatch on the opcode.
type recKind uint8

const (
	// rNop has no architectural effect beyond PC+1: nop, an invalid opcode
	// (an annulled operation), and an integer load or ALU write to r0,
	// which is dropped.
	rNop recKind = iota
	// rAdd through rLwr write the integer register rd; record makes them
	// rNop when rd is r0.
	rAdd
	rSub
	rAnd
	rOr
	rXor
	rSll
	rSrl
	rSra
	rSlt
	rSltu
	rMul
	rDiv
	rAddI
	rAndI
	rOrI
	rXorI
	rSltI
	rLui
	rLb
	rLh
	rLw
	rLd
	rLwl
	rLwr
	rFld
	rSb
	rSh
	rSw
	rSd
	rFsd
	rBeq
	rBne
	rBlt
	rBge
	rBltu
	rBgeu
	rJ
	rJal
	rJr
	rJalr
	rFAdd
	rFSub
	rFMul
	rFDiv
	rFNeg
	rFMov
	rFCmp
	rFCvt
	rHalt
)

// fusedOps is the record kind of each opcode. The opcodes it leaves at
// rNop are nop and the invalid ones, whose clean execution has no effect
// (cleanOps kinds kindNop and kindTrap); TestExecTraceMatchesExecInto runs
// every opcode against ExecInto, so an opcode added without a kind here
// fails it.
var fusedOps = [256]recKind{
	OpAdd: rAdd, OpSub: rSub, OpAnd: rAnd, OpOr: rOr, OpXor: rXor,
	OpSll: rSll, OpSrl: rSrl, OpSra: rSra, OpSlt: rSlt, OpSltu: rSltu,
	OpMul: rMul, OpDiv: rDiv,
	OpAddi: rAddI, OpAndi: rAndI, OpOri: rOrI, OpXori: rXorI, OpSlti: rSltI, OpLui: rLui,
	OpLb: rLb, OpLh: rLh, OpLw: rLw, OpLd: rLd, OpLwl: rLwl, OpLwr: rLwr, OpFLd: rFld,
	OpSb: rSb, OpSh: rSh, OpSw: rSw, OpSd: rSd, OpFSd: rFsd,
	OpBeq: rBeq, OpBne: rBne, OpBlt: rBlt, OpBge: rBge, OpBltu: rBltu, OpBgeu: rBgeu,
	OpJ: rJ, OpJal: rJal, OpJr: rJr, OpJalr: rJalr,
	OpFAdd: rFAdd, OpFSub: rFSub, OpFMul: rFMul, OpFDiv: rFDiv,
	OpFNeg: rFNeg, OpFMov: rFMov, OpFCmp: rFCmp, OpFCvt: rFCvt,
	OpHalt: rHalt,
}

// record predecodes the clean word w, trace length aside.
func record(w uint64) uint64 {
	op := Opcode(w >> bitOpcode)
	e := cleanOps[op]
	k := fusedOps[op]
	rs1, rs2, rd := w>>bitRsrc1&0x1f, w>>bitRsrc2&0x1f, w>>bitRdst&0x1f
	imm16 := uint16(w >> bitImm)
	var imm int32
	switch e.kind {
	case kindALUImm:
		imm = int32(imm16)
	case kindALUSImm, kindLoad, kindLoadS, kindLwl, kindLwr, kindFLoad,
		kindStore, kindFStore, kindBranch:
		imm = int32(int16(imm16))
	case kindJump, kindJal:
		imm = int32(wordTarget(w))
	case kindALU:
		imm = int32(w >> bitShamt & 0x1f)
	}
	if k == rLui {
		imm = int32(uint32(imm16) << 16)
	}
	// Integer writes to the hardwired zero register are dropped: such a
	// load or ALU operation has no effect, and such a call is a plain jump.
	if rd == 0 {
		switch {
		case k == rJal:
			k = rJ
		case k == rJalr:
			k = rJr
		case k >= rAdd && k <= rLwr:
			k = rNop
		}
	}
	return uint64(k) | rd<<recRd | rs1<<recRs1 | rs2<<recRs2 | uint64(uint32(imm))<<recImm
}

// wordTarget reconstructs the 26-bit direct jump target split across the
// imm, shamt and rsrc2 fields of the packed word w (see Decode).
func wordTarget(w uint64) uint64 {
	return w>>bitImm&0xffff | (w>>bitShamt&0x1f)<<16 | (w>>bitRsrc2&0x1f)<<21
}

// TraceRecords predecodes words, the clean packed Decode words of an image
// indexed by PC, into one trace record per static instruction plus a halt
// record past the image end, where every PC outside the image decodes as
// halt. Each record holds the length of the static trace starting at its
// PC: up to the instruction EndsTrace ends it at or the first halt. One
// backward pass computes them all: a trace that does not stop at its first
// instruction is one longer than the trace at the next PC, up to
// MaxTraceLen.
func TraceRecords(words []uint64) []uint64 {
	recs := make([]uint64, len(words)+1)
	recs[len(words)] = record(HaltWord) | 1<<recLen
	n := uint64(1)
	for pc := len(words) - 1; pc >= 0; pc-- {
		w := words[pc]
		if EndsTrace(w, 1) || WordOpcode(w) == OpHalt {
			n = 1
		} else {
			n = min(n+1, MaxTraceLen)
		}
		recs[pc] = record(w) | n<<recLen
	}
	return recs
}

// RecordLen returns the length of the static trace starting at the PC of
// trace record r.
func RecordLen(r uint64) int { return int(r >> recLen & 0x1f) }

// ExecTrace executes the static trace starting at st.PC in place, cut after
// its limit-th instruction. recs is an image's TraceRecords and words the
// image's packed Decode words followed by HaltWord, one per record; a PC
// outside the image runs the halt record past its end. The record at st.PC
// gives the trace's length: up to the instruction EndsTrace ends it at or
// the first halt. It returns the number of instructions executed, the XOR
// of their words (the trace signature), whether EndsTrace ended the trace,
// and whether the last instruction was a halt. The PC is set once, after
// the last instruction.
//
// The trace changes st's registers and PC, and mem, exactly as ExecInto
// followed by ApplyRef would, one instruction at a time, with mem as
// st.Mem. Two preconditions make that hold without per-instruction flag
// tests: the records come from clean signals, as in a program's decode
// table, and st.R[0] is zero, as in every state ApplyRef reaches from a
// reset.
func (st *ArchState) ExecTrace(mem *Memory, recs, words []uint64, limit int) (n int, sig uint64, ended, halt bool) {
	pc := st.PC
	i := uint64(len(recs) - 1)
	if pc < i {
		i = pc
	}
	length := RecordLen(recs[i])
	n = min(length, max(limit, 0))
	rs, ws := recs[i:i+uint64(n)], words[i:i+uint64(n)]
	next := pc + uint64(n)
	for j, r := range rs {
		sig ^= ws[j]
		rd, rs1, rs2 := r>>recRd&0x1f, r>>recRs1&0x1f, r>>recRs2&0x1f
		imm := uint64(int64(r) >> recImm)
		switch recKind(r & 0x3f) {
		case rAdd:
			st.R[rd] = st.R[rs1] + st.R[rs2]
		case rSub:
			st.R[rd] = st.R[rs1] - st.R[rs2]
		case rAnd:
			st.R[rd] = st.R[rs1] & st.R[rs2]
		case rOr:
			st.R[rd] = st.R[rs1] | st.R[rs2]
		case rXor:
			st.R[rd] = st.R[rs1] ^ st.R[rs2]
		case rSll:
			st.R[rd] = st.R[rs1] << imm
		case rSrl:
			st.R[rd] = st.R[rs1] >> imm
		case rSra:
			st.R[rd] = uint64(int64(st.R[rs1]) >> imm)
		case rSlt:
			st.R[rd] = b2u(int64(st.R[rs1]) < int64(st.R[rs2]))
		case rSltu:
			st.R[rd] = b2u(st.R[rs1] < st.R[rs2])
		case rMul:
			st.R[rd] = st.R[rs1] * st.R[rs2]
		case rDiv:
			if d := st.R[rs2]; d != 0 {
				st.R[rd] = st.R[rs1] / d
			} else {
				st.R[rd] = 0
			}
		case rAddI:
			st.R[rd] = st.R[rs1] + imm
		case rAndI:
			st.R[rd] = st.R[rs1] & imm
		case rOrI:
			st.R[rd] = st.R[rs1] | imm
		case rXorI:
			st.R[rd] = st.R[rs1] ^ imm
		case rSltI:
			st.R[rd] = b2u(int64(st.R[rs1]) < int64(imm))
		case rLui:
			st.R[rd] = r >> recImm
		case rLb:
			st.R[rd] = uint64(int8(mem.Load(st.R[rs1]+imm, 1)))
		case rLh:
			st.R[rd] = uint64(int16(mem.Load(st.R[rs1]+imm, 2)))
		case rLw:
			st.R[rd] = uint64(int32(mem.Load(st.R[rs1]+imm, 4)))
		case rLd:
			st.R[rd] = mem.Load(st.R[rs1]+imm, 8)
		case rLwl:
			st.R[rd] = st.R[rd]&0x0000ffff | mem.Load((st.R[rs1]+imm)&^3, 4)&0xffff0000
		case rLwr:
			st.R[rd] = st.R[rd]&0xffff0000 | mem.Load((st.R[rs1]+imm)&^3, 4)&0x0000ffff
		case rFld:
			st.F[rd] = mem.Load(st.R[rs1]+imm, 8)
		case rSb:
			mem.Store(st.R[rs1]+imm, 1, st.R[rs2])
		case rSh:
			mem.Store(st.R[rs1]+imm, 2, st.R[rs2])
		case rSw:
			mem.Store(st.R[rs1]+imm, 4, st.R[rs2])
		case rSd:
			mem.Store(st.R[rs1]+imm, 8, st.R[rs2])
		case rFsd:
			mem.Store(st.R[rs1]+imm, 8, st.F[rs2])
		// A branching instruction ends its trace, so it is the last record
		// run and its PC is pc+j.
		case rBeq:
			if st.R[rs1] == st.R[rs2] {
				next = pc + uint64(j) + 1 + imm
			}
		case rBne:
			if st.R[rs1] != st.R[rs2] {
				next = pc + uint64(j) + 1 + imm
			}
		case rBlt:
			if int64(st.R[rs1]) < int64(st.R[rs2]) {
				next = pc + uint64(j) + 1 + imm
			}
		case rBge:
			if int64(st.R[rs1]) >= int64(st.R[rs2]) {
				next = pc + uint64(j) + 1 + imm
			}
		case rBltu:
			if st.R[rs1] < st.R[rs2] {
				next = pc + uint64(j) + 1 + imm
			}
		case rBgeu:
			if st.R[rs1] >= st.R[rs2] {
				next = pc + uint64(j) + 1 + imm
			}
		case rJ:
			next = imm
		case rJal:
			st.R[rd] = pc + uint64(j) + 1
			next = imm
		case rJr:
			next = st.R[rs1]
		case rJalr:
			next = st.R[rs1]
			st.R[rd] = pc + uint64(j) + 1
		case rFAdd:
			st.F[rd] = math.Float64bits(math.Float64frombits(st.F[rs1]) + math.Float64frombits(st.F[rs2]))
		case rFSub:
			st.F[rd] = math.Float64bits(math.Float64frombits(st.F[rs1]) - math.Float64frombits(st.F[rs2]))
		case rFMul:
			st.F[rd] = math.Float64bits(math.Float64frombits(st.F[rs1]) * math.Float64frombits(st.F[rs2]))
		case rFDiv:
			if d := math.Float64frombits(st.F[rs2]); d != 0 {
				st.F[rd] = math.Float64bits(math.Float64frombits(st.F[rs1]) / d)
			} else {
				st.F[rd] = 0
			}
		case rFNeg:
			st.F[rd] = math.Float64bits(-math.Float64frombits(st.F[rs1]))
		case rFMov:
			st.F[rd] = st.F[rs1]
		case rFCmp:
			st.F[rd] = b2u(math.Float64frombits(st.F[rs1]) < math.Float64frombits(st.F[rs2]))
		case rFCvt:
			st.F[rd] = math.Float64bits(float64(int64(st.R[rs1])))
		case rHalt:
			halt = true
		}
	}
	st.PC = next
	return n, sig, n == length && (!halt || n == MaxTraceLen), halt
}

// b2u converts a comparison result to 1 or 0.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
