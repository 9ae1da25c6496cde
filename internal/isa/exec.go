package isa

import (
	"fmt"
	"math"
)

// MemBus is the data-memory interface the executor reads and writes through.
// The pipeline substitutes a speculative store-buffer overlay; plain
// functional execution uses *Memory directly (see mem.go for the paged
// copy-on-write store behind it).
type MemBus interface {
	// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended.
	Load(addr uint64, size uint8) uint64
	// Store writes size bytes (1, 2, 4 or 8) of v at addr.
	Store(addr uint64, size uint8, v uint64)
}

// ArchState is the architectural state of the machine: two 32-entry register
// files (integer and floating point), data memory and the program counter.
// PC counts instructions (not bytes).
type ArchState struct {
	R   [NumRegs]uint64 // integer registers; R[0] is hardwired zero
	F   [NumRegs]uint64 // floating-point registers (raw float64 bits)
	Mem MemBus
	PC  uint64
}

// NewArchState returns a reset architectural state with empty memory.
func NewArchState() *ArchState {
	return &ArchState{Mem: NewMemory()}
}

// Outcome is the architectural effect of executing one instruction: the only
// state updates it may perform. The pipeline's commit stage compares Outcomes
// against a golden execution to detect silent data corruption.
type Outcome struct {
	NextPC   uint64
	Taken    bool // control transfer taken (branches only)
	Branch   bool // signals described a control-transfer instruction
	RegWrite bool
	RegFP    bool // write targets the floating-point file
	Reg      RegID
	Value    uint64
	MemWrite bool
	MemAddr  uint64
	MemWData uint64
	MemWSize uint8 // bytes
	Halt     bool
	Illegal  bool // signals did not describe a well-formed operation
}

// SameArchEffect reports whether two outcomes perform identical architectural
// updates (register write, memory write, and next PC). Pointer receiver and
// argument keep the comparison copy-free on the commit hot path.
func (o *Outcome) SameArchEffect(g *Outcome) bool {
	if o.NextPC != g.NextPC || o.Halt != g.Halt {
		return false
	}
	if o.RegWrite != g.RegWrite {
		return false
	}
	if o.RegWrite && (o.Reg != g.Reg || o.RegFP != g.RegFP || o.Value != g.Value) {
		return false
	}
	if o.MemWrite != g.MemWrite {
		return false
	}
	if o.MemWrite && (o.MemAddr != g.MemAddr || o.MemWData != g.MemWData || o.MemWSize != g.MemWSize) {
		return false
	}
	return true
}

func (o Outcome) String() string {
	s := fmt.Sprintf("next=%d", o.NextPC)
	if o.RegWrite {
		file := "r"
		if o.RegFP {
			file = "f"
		}
		s += fmt.Sprintf(" %s%d=%#x", file, o.Reg, o.Value)
	}
	if o.MemWrite {
		s += fmt.Sprintf(" mem[%#x]=%#x(%dB)", o.MemAddr, o.MemWData, o.MemWSize)
	}
	if o.Halt {
		s += " halt"
	}
	return s
}

// memBytes converts the 3-bit mem_size field to an access width in bytes.
// Values above 4 (possible only under faults) clamp to 8 bytes; 0 means no
// access.
func memBytes(memSize uint8) uint8 {
	switch memSize {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 2
	case 3:
		return 4
	default:
		return 8
	}
}

func sx16(v uint16) uint64 { return uint64(int64(int16(v))) }

func signExtend(v uint64, bytes uint8) uint64 {
	switch bytes {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	default:
		return v
	}
}

// regInt reads integer register r through the hardwired-zero rule.
func (st *ArchState) regInt(r RegID) uint64 {
	if r == 0 {
		return 0
	}
	return st.R[r&0x1f]
}

// regFP reads floating-point register r.
func (st *ArchState) regFP(r RegID) uint64 { return st.F[r&0x1f] }

// regSrc reads r from the file selected by is_fp.
func (st *ArchState) regSrc(d DecodeSignals, r RegID) uint64 {
	if d.HasFlag(FlagFP) {
		return st.F[r&0x1f]
	}
	return st.regInt(r)
}

// writeDst records the register write-back of v, gated by num_rdst and the
// hardwired zero register.
func (o *Outcome) writeDst(d DecodeSignals, v uint64) {
	if d.NumRdst == 0 {
		return
	}
	o.RegWrite = true
	o.RegFP = d.HasFlag(FlagFP)
	o.Reg = d.Rdst & 0x1f
	o.Value = v
	if !o.RegFP && o.Reg == 0 {
		// Writes to the hardwired zero register are dropped.
		o.RegWrite = false
	}
}

// Exec computes the architectural effect of executing the decode signals d at
// program counter pc against state st. It reads registers and memory but
// performs no writes; apply the returned Outcome with Apply.
//
// Execution is driven by the (possibly fault-corrupted) signal vector, not by
// re-decoding the instruction: operand-file selection follows is_fp, operand
// sourcing follows is_RR/is_disp, memory behaviour follows is_ld/is_st and
// mem_size, control transfer follows is_branch/is_uncond/is_direct, and the
// register write-back is gated by num_rdst. This mirrors how corrupted decode
// signals steer a real pipeline.
func (st *ArchState) Exec(d DecodeSignals, pc uint64) Outcome {
	var o Outcome
	st.ExecInto(&o, d, pc)
	return o
}

// execSpecial is the flag set that steers execution away from the plain-ALU
// default path; testing it once fast-paths the most common instruction kind.
const execSpecial = FlagTrap | FlagBranch | FlagLd | FlagSt

// ExecInto is Exec writing the outcome into *o instead of returning it — the
// pipeline's dispatch loop executes straight into the ROB outcome column,
// avoiding a per-instruction Outcome copy.
func (st *ArchState) ExecInto(o *Outcome, d DecodeSignals, pc uint64) {
	*o = Outcome{NextPC: pc + 1}

	if d.Flags&execSpecial == 0 {
		o.writeDst(d, st.alu(d))
		return
	}

	switch {
	case d.HasFlag(FlagTrap):
		if d.Opcode == OpHalt {
			o.Halt = true
		} else {
			// A trap flag on a non-trap opcode (possible only under a
			// fault, or an invalid opcode) acts as an annulled operation.
			o.Illegal = true
		}
		return

	case d.HasFlag(FlagBranch):
		o.Branch = true
		if d.HasFlag(FlagUncond) {
			o.Taken = true
			if d.HasFlag(FlagDirect) {
				o.NextPC = d.DirectTarget()
			} else {
				o.NextPC = st.regInt(d.Rsrc1)
			}
			// Calls record the return address.
			o.writeDst(d, pc+1)
			if o.RegWrite && d.HasFlag(FlagFP) {
				// A link write can only meaningfully target the integer
				// file; a corrupted is_fp makes it land in the fp file,
				// which is exactly the corruption we want to model.
				o.RegFP = true
			}
			return
		}
		taken, ok := branchTaken(d.Opcode, st.regInt(d.Rsrc1), st.regInt(d.Rsrc2))
		if !ok {
			// A corrupted opcode on a branch-flagged instruction: the
			// condition select lines pick nothing; fall through untaken.
			o.Illegal = true
		}
		if taken {
			o.Taken = true
			o.NextPC = pc + 1 + sx16(d.Imm)
		}
		return

	case d.HasFlag(FlagLd):
		addr := st.regInt(d.Rsrc1) + sx16(d.Imm)
		bytes := memBytes(d.MemSize)
		v := st.Mem.Load(addr, bytes)
		if d.HasFlag(FlagSigned) {
			v = signExtend(v, bytes)
		}
		switch d.Opcode {
		case OpLwl:
			old := st.regSrc(d, d.Rdst)
			v = old&0x0000ffff | st.Mem.Load(addr&^3, 4)&0xffff0000
		case OpLwr:
			old := st.regSrc(d, d.Rdst)
			v = old&0xffff0000 | st.Mem.Load(addr&^3, 4)&0x0000ffff
		}
		o.writeDst(d, v)
		return

	case d.HasFlag(FlagSt):
		addr := st.regInt(d.Rsrc1) + sx16(d.Imm)
		o.MemWrite = true
		o.MemAddr = addr
		o.MemWSize = memBytes(d.MemSize)
		o.MemWData = st.regSrc(d, d.Rsrc2)
		if o.MemWSize == 0 {
			// A corrupted mem_size of zero suppresses the access.
			o.MemWrite = false
		}
		return

	default:
		o.writeDst(d, st.alu(d))
		return
	}
}

// branchTaken evaluates the condition of conditional branch op on operands a
// and b; ok is false when op is not a conditional branch.
func branchTaken(op Opcode, a, b uint64) (taken, ok bool) {
	switch op {
	case OpBeq:
		return a == b, true
	case OpBne:
		return a != b, true
	case OpBlt:
		return int64(a) < int64(b), true
	case OpBge:
		return int64(a) >= int64(b), true
	case OpBltu:
		return a < b, true
	case OpBgeu:
		return a >= b, true
	}
	return false, false
}

// alu computes the result of a non-memory, non-branch operation.
func (st *ArchState) alu(d DecodeSignals) uint64 {
	// Operand sourcing: register-register format reads rsrc2; displacement
	// format substitutes the immediate.
	a := st.regInt(d.Rsrc1)
	if d.HasFlag(FlagFP) {
		return fpuOp(d.Opcode, st.regFP(d.Rsrc1), st.regFP(d.Rsrc2), a)
	}
	b := st.regInt(d.Rsrc2)
	if d.HasFlag(FlagDisp) {
		if d.HasFlag(FlagSigned) {
			b = sx16(d.Imm)
		} else {
			b = uint64(d.Imm)
		}
	}
	return aluOp(d.Opcode, a, b, d.Shamt, d.Imm)
}

// fpuOp computes floating-point operation op on the raw register bits x and
// y (the fp sources) and the integer source a (fcvt's operand).
func fpuOp(op Opcode, x, y, a uint64) uint64 {
	fa, fb := math.Float64frombits(x), math.Float64frombits(y)
	switch op {
	case OpFAdd:
		return math.Float64bits(fa + fb)
	case OpFSub:
		return math.Float64bits(fa - fb)
	case OpFMul:
		return math.Float64bits(fa * fb)
	case OpFDiv:
		if fb == 0 {
			return math.Float64bits(0)
		}
		return math.Float64bits(fa / fb)
	case OpFNeg:
		return math.Float64bits(-fa)
	case OpFMov:
		return x
	case OpFCmp:
		if fa < fb {
			return 1
		}
		return 0
	case OpFCvt:
		return math.Float64bits(float64(int64(a)))
	default:
		// Corrupted opcode with is_fp set: pass operand through.
		return x
	}
}

// aluOp computes integer operation op on operands a and b (b already
// sourced from rsrc2 or the immediate), the shift amount and the raw
// immediate (lui's operand).
func aluOp(op Opcode, a, b uint64, shamt uint8, imm uint16) uint64 {
	switch op {
	case OpAdd, OpAddi:
		return a + b
	case OpSub:
		return a - b
	case OpAnd, OpAndi:
		return a & b
	case OpOr, OpOri:
		return a | b
	case OpXor, OpXori:
		return a ^ b
	case OpSll:
		return a << (shamt & 0x3f)
	case OpSrl:
		return a >> (shamt & 0x3f)
	case OpSra:
		return uint64(int64(a) >> (shamt & 0x3f))
	case OpSlt, OpSlti:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case OpSltu:
		if a < b {
			return 1
		}
		return 0
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpLui:
		return uint64(imm) << 16
	case OpNop:
		return 0
	default:
		// Corrupted opcode: the ALU op-select lines pick no unit; model as
		// a pass-through of the first operand.
		return a
	}
}

// Apply commits an Outcome to the architectural state.
func (st *ArchState) Apply(o Outcome) { st.ApplyRef(&o) }

// ApplyRef is Apply without the argument copy, for hot paths that already
// hold the outcome in addressable storage.
func (st *ArchState) ApplyRef(o *Outcome) {
	if o.RegWrite {
		if o.RegFP {
			st.F[o.Reg&0x1f] = o.Value
		} else if o.Reg&0x1f != 0 {
			st.R[o.Reg&0x1f] = o.Value
		}
	}
	if o.MemWrite {
		st.Mem.Store(o.MemAddr, o.MemWSize, o.MemWData)
	}
	st.PC = o.NextPC
}

// Step decodes and executes one instruction functionally: the reference
// ("golden") execution path.
func (st *ArchState) Step(inst Instruction) Outcome {
	o := st.Exec(Decode(inst), st.PC)
	st.Apply(o)
	return o
}
