package isa

// In-place execution of clean instruction streams.
//
// ExecInto is steered by a possibly corrupted signal vector, so it re-tests
// the flags of every dynamic instruction. Fault-free execution need not: its
// signals are Decode's, and Decode derives the flags, num_rdst and mem_size
// fields from the opcode alone. The opcode-indexed fusedOps table therefore
// names the operation ExecInto would perform from those fields. ExecClean
// dispatches on it and reuses ExecInto's arithmetic helpers to run one
// instruction, writing the Outcome the pipeline and the commit shadows
// compare; the trace records ExecTrace runs from are built from the same
// table (record.go).

// HaltWord is the packed signal word of halt, which a PC outside the image
// decodes to.
var HaltWord = Decode(Instruction{Op: OpHalt}).Pack()

// ExecClean executes the clean word w at pc in one pass: it writes into *o
// the Outcome ExecInto writes for UnpackSignals(w), r0 destinations and
// Illegal included, and applies it to st as ApplyRef does. It is the
// fault-free path of the pipeline's dispatch and of the commit shadows;
// ExecInto remains for signals a fault corrupted. The preconditions are
// ExecTrace's: w is a Decode word and st.R[0] is zero.
func (st *ArchState) ExecClean(o *Outcome, w, pc uint64) {
	op := Opcode(w >> bitOpcode)
	rs1, rs2, rd := w>>bitRsrc1&0x1f, w>>bitRsrc2&0x1f, w>>bitRdst&0x1f
	imm := uint16(w >> bitImm)
	*o = Outcome{NextPC: pc + 1}
	switch k := fusedOps[op]; k {
	case rAdd, rSub, rAnd, rOr, rXor, rSll, rSrl, rSra, rSlt, rSltu, rMul, rDiv:
		st.writeInt(o, rd, aluOp(op, st.R[rs1], st.R[rs2], uint8(w>>bitShamt)&0x1f, imm))
	case rAndI, rOrI, rXorI, rLui:
		st.writeInt(o, rd, aluOp(op, st.R[rs1], uint64(imm), 0, imm))
	case rAddI, rSltI:
		st.writeInt(o, rd, aluOp(op, st.R[rs1], sx16(imm), 0, imm))
	case rFAdd, rFSub, rFMul, rFDiv, rFNeg, rFMov, rFCmp, rFCvt:
		st.writeFP(o, rd, fpuOp(op, st.F[rs1], st.F[rs2], st.R[rs1]))
	case rLb, rLh, rLw, rLd:
		size := memBytes(uint8(w >> bitMemSize))
		st.writeInt(o, rd, signExtend(st.Mem.Load(st.R[rs1]+sx16(imm), size), size))
	case rLwl:
		st.writeInt(o, rd, st.R[rd]&0x0000ffff|st.Mem.Load((st.R[rs1]+sx16(imm))&^3, 4)&0xffff0000)
	case rLwr:
		st.writeInt(o, rd, st.R[rd]&0xffff0000|st.Mem.Load((st.R[rs1]+sx16(imm))&^3, 4)&0x0000ffff)
	case rFld:
		st.writeFP(o, rd, st.Mem.Load(st.R[rs1]+sx16(imm), memBytes(uint8(w>>bitMemSize))))
	case rSb, rSh, rSw, rSd, rFsd:
		v := st.R[rs2]
		if k == rFsd {
			v = st.F[rs2]
		}
		o.MemWrite, o.MemAddr, o.MemWData, o.MemWSize = true, st.R[rs1]+sx16(imm), v, memBytes(uint8(w>>bitMemSize))
		st.Mem.Store(o.MemAddr, o.MemWSize, v)
	case rBeq, rBne, rBlt, rBge, rBltu, rBgeu:
		o.Branch = true
		if taken, _ := branchTaken(op, st.R[rs1], st.R[rs2]); taken {
			o.Taken, o.NextPC = true, pc+1+sx16(imm)
		}
	case rJ, rJal:
		o.Branch, o.Taken = true, true
		o.NextPC = wordTarget(w)
		if k == rJal {
			st.writeInt(o, rd, pc+1)
		}
	case rJr, rJalr:
		o.Branch, o.Taken = true, true
		o.NextPC = st.R[rs1]
		if k == rJalr {
			st.writeInt(o, rd, pc+1)
		}
	case rHalt:
		o.Halt = true
	case rTrap:
		o.Illegal = true
	}
	st.PC = o.NextPC
}

// writeInt records and applies the integer write-back of v to rd. Like
// ExecInto, it records rd and v even when rd is the hardwired zero register,
// whose write it drops.
func (st *ArchState) writeInt(o *Outcome, rd, v uint64) {
	o.Reg, o.Value = RegID(rd), v
	if rd != 0 {
		o.RegWrite = true
		st.R[rd] = v
	}
}

// writeFP records and applies the floating-point write-back of v to rd.
func (st *ArchState) writeFP(o *Outcome, rd, v uint64) {
	o.RegWrite, o.RegFP, o.Reg, o.Value = true, true, RegID(rd), v
	st.F[rd] = v
}
