package isa

// In-place execution of clean instruction streams.
//
// ExecInto is steered by a possibly corrupted signal vector, so it re-tests
// the flags of every dynamic instruction. Fault-free execution need not: its
// signals are Decode's, and Decode derives the flags, num_rdst and mem_size
// fields from the opcode alone. A 256-entry table indexed by opcode therefore
// holds the choices ExecInto would make from those fields. ExecClean reads it
// and reuses ExecInto's arithmetic helpers to run one instruction, writing
// the Outcome the pipeline and the commit shadows compare; the trace records
// ExecTrace runs from take their operand forms from it (record.go).

// opKind is the execution path ExecInto takes for a clean opcode.
type opKind uint8

const (
	kindNop     opKind = iota // PC+1 only: nop
	kindTrap                  // invalid opcode: an annulled operation
	kindALU                   // integer ALU, register-register operands
	kindALUImm                // integer ALU, zero-extended immediate
	kindALUSImm               // integer ALU, sign-extended immediate
	kindFPU                   // floating-point operation
	kindLoad                  // integer load, zero-extended
	kindLoadS                 // integer load, sign-extended
	kindLwl                   // unaligned word load, left half
	kindLwr                   // unaligned word load, right half
	kindFLoad                 // floating-point load
	kindStore                 // integer store
	kindFStore                // floating-point store
	kindBranch                // conditional branch
	kindJump                  // direct jump
	kindJal                   // direct call
	kindJr                    // register-indirect jump
	kindJalr                  // register-indirect call
	kindHalt
)

// cleanOp is the opcode-indexed table entry: the execution path and, for
// memory operations, the access width in bytes.
type cleanOp struct {
	kind opKind
	size uint8
}

var cleanOps = func() (t [256]cleanOp) {
	for i := range t {
		d := Decode(Instruction{Op: Opcode(i)})
		t[i] = cleanOp{kind: classify(d), size: memBytes(d.MemSize)}
	}
	return t
}()

// HaltWord is the packed signal word of halt, which a PC outside the image
// decodes to.
var HaltWord = Decode(Instruction{Op: OpHalt}).Pack()

// classify follows ExecInto's dispatch for the clean signals d.
func classify(d DecodeSignals) opKind {
	fp := d.HasFlag(FlagFP)
	switch {
	case d.HasFlag(FlagTrap):
		if d.Opcode == OpHalt {
			return kindHalt
		}
		return kindTrap
	case d.HasFlag(FlagBranch):
		link := d.NumRdst != 0
		switch {
		case !d.HasFlag(FlagUncond):
			return kindBranch
		case d.HasFlag(FlagDirect) && link:
			return kindJal
		case d.HasFlag(FlagDirect):
			return kindJump
		case link:
			return kindJalr
		}
		return kindJr
	case d.HasFlag(FlagLd):
		switch {
		case fp:
			return kindFLoad
		case d.Opcode == OpLwl:
			return kindLwl
		case d.Opcode == OpLwr:
			return kindLwr
		case d.HasFlag(FlagSigned):
			return kindLoadS
		}
		return kindLoad
	case d.HasFlag(FlagSt):
		if fp {
			return kindFStore
		}
		return kindStore
	case d.NumRdst == 0:
		return kindNop
	case fp:
		return kindFPU
	case !d.HasFlag(FlagDisp):
		return kindALU
	case d.HasFlag(FlagSigned):
		return kindALUSImm
	}
	return kindALUImm
}

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
	switch e := cleanOps[op]; e.kind {
	case kindALU:
		st.writeInt(o, rd, aluOp(op, st.R[rs1], st.R[rs2], uint8(w>>bitShamt)&0x1f, imm))
	case kindALUImm:
		st.writeInt(o, rd, aluOp(op, st.R[rs1], uint64(imm), uint8(w>>bitShamt)&0x1f, imm))
	case kindALUSImm:
		st.writeInt(o, rd, aluOp(op, st.R[rs1], sx16(imm), uint8(w>>bitShamt)&0x1f, imm))
	case kindFPU:
		st.writeFP(o, rd, fpuOp(op, st.F[rs1], st.F[rs2], st.R[rs1]))
	case kindLoad:
		st.writeInt(o, rd, st.Mem.Load(st.R[rs1]+sx16(imm), e.size))
	case kindLoadS:
		st.writeInt(o, rd, signExtend(st.Mem.Load(st.R[rs1]+sx16(imm), e.size), e.size))
	case kindLwl:
		st.writeInt(o, rd, st.R[rd]&0x0000ffff|st.Mem.Load((st.R[rs1]+sx16(imm))&^3, 4)&0xffff0000)
	case kindLwr:
		st.writeInt(o, rd, st.R[rd]&0xffff0000|st.Mem.Load((st.R[rs1]+sx16(imm))&^3, 4)&0x0000ffff)
	case kindFLoad:
		st.writeFP(o, rd, st.Mem.Load(st.R[rs1]+sx16(imm), e.size))
	case kindStore, kindFStore:
		v := st.R[rs2]
		if e.kind == kindFStore {
			v = st.F[rs2]
		}
		o.MemWrite, o.MemAddr, o.MemWData, o.MemWSize = true, st.R[rs1]+sx16(imm), v, e.size
		st.Mem.Store(o.MemAddr, e.size, v)
	case kindBranch:
		o.Branch = true
		if taken, _ := branchTaken(op, st.R[rs1], st.R[rs2]); taken {
			o.Taken, o.NextPC = true, pc+1+sx16(imm)
		}
	case kindJump, kindJal:
		o.Branch, o.Taken = true, true
		o.NextPC = wordTarget(w)
		if e.kind == kindJal {
			st.writeInt(o, rd, pc+1)
		}
	case kindJr, kindJalr:
		o.Branch, o.Taken = true, true
		o.NextPC = st.R[rs1]
		if e.kind == kindJalr {
			st.writeInt(o, rd, pc+1)
		}
	case kindHalt:
		o.Halt = true
	case kindTrap:
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
