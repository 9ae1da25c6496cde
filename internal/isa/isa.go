// Package isa defines the synthetic RISC instruction set used throughout the
// ITR reproduction: instruction encodings, the decode-signal vector of the
// paper's Table 2, a decoder, and full functional execution semantics.
//
// The ISA stands in for the SimpleScalar PISA ISA used by the paper. What
// matters for reproducing the paper is preserved exactly:
//
//   - the decode-signal vector is the paper's Table 2, bit for bit: opcode(8),
//     flags(12), shamt(5), rsrc1(5), rsrc2(5), rdst(5), lat(2), imm(16),
//     num_rsrc(2), num_rdst(1), mem_size(3) — 64 bits total;
//   - traces terminate on branching instructions or at 16 instructions;
//   - execution is driven by the decode signals themselves (not re-derived
//     from the opcode), so a transient fault on any signal propagates into
//     architectural behaviour the same way it would in hardware.
package isa

import "fmt"

// RegID names one architectural register within a register file.
// Each file (integer, floating point) holds 32 registers; register 0 of the
// integer file is hardwired to zero, as in MIPS/PISA.
type RegID uint8

// NumRegs is the number of registers in each architectural register file.
const NumRegs = 32

// MaxTraceLen is the maximum number of instructions in a trace before it is
// force-terminated (paper Section 1: "a limit of 16 instructions").
const MaxTraceLen = 16

// EndsTrace is the trace-formation rule (paper Section 1): the instruction
// with packed signal word w, the n-th of its trace, ends the trace when it is
// a branching instruction or n has reached MaxTraceLen. A halt is not part of
// the rule: it stops a functional walk because the program stops there, while
// the pipeline's fetch runs on past it down the wrong path.
func EndsTrace(w uint64, n int) bool { return WordIsBranching(w) || n >= MaxTraceLen }

// Flag bits within the 12-bit decoded control flags field of Table 2.
// The paper lists exactly twelve flags: is_int, is_fp, is_signed/unsigned,
// is_branch, is_uncond, is_ld, is_st, mem_left/right, is_RR, is_disp,
// is_direct, is_trap.
const (
	FlagInt    uint16 = 1 << 0  // integer operation
	FlagFP     uint16 = 1 << 1  // floating-point operation
	FlagSigned uint16 = 1 << 2  // signed (vs unsigned) interpretation
	FlagBranch uint16 = 1 << 3  // control-transfer instruction
	FlagUncond uint16 = 1 << 4  // unconditional control transfer
	FlagLd     uint16 = 1 << 5  // memory load
	FlagSt     uint16 = 1 << 6  // memory store
	FlagMemL   uint16 = 1 << 7  // unaligned-access left half (vs right)
	FlagRR     uint16 = 1 << 8  // register-register format
	FlagDisp   uint16 = 1 << 9  // displacement addressing / immediate format
	FlagDirect uint16 = 1 << 10 // direct (vs register-indirect) target
	FlagTrap   uint16 = 1 << 11 // trap / system instruction
)

// FlagsMask covers the 12 architected flag bits.
const FlagsMask uint16 = (1 << 12) - 1

// flagNames maps each flag bit position to the paper's name for it, used in
// fault-injection reports.
var flagNames = [12]string{
	"is_int", "is_fp", "is_signed", "is_branch", "is_uncond", "is_ld",
	"is_st", "mem_left", "is_RR", "is_disp", "is_direct", "is_trap",
}

// FlagName returns the paper's name for the flag at bit position pos (0-11).
func FlagName(pos int) string {
	if pos < 0 || pos >= len(flagNames) {
		return fmt.Sprintf("flag%d", pos)
	}
	return flagNames[pos]
}
