// Package sig implements ITR trace-signature generation (paper Section 2.1)
// and the protected control-state encodings of Section 2.4.
//
// A signature is the bitwise XOR of the packed 64-bit decode-signal vectors
// of every instruction in a trace. XOR combining guarantees that any single
// faulty signal bit anywhere in the trace changes the signature; only an even
// number of faults in the same signal of different instructions can cancel —
// outside the single-event-upset model the paper (and this reproduction)
// assumes.
package sig

import (
	"fmt"
	"math/bits"

	"itr/internal/isa"
)

// Accumulator combines decode-signal words into a trace signature. The zero
// value is an empty accumulator ready for use.
type Accumulator struct {
	sig uint64
	n   int
}

// Add folds one instruction's packed decode-signal word into the signature.
func (a *Accumulator) Add(word uint64) {
	a.sig ^= word
	a.n++
}

// AddSignals folds one instruction's decode signals into the signature.
func (a *Accumulator) AddSignals(d isa.DecodeSignals) { a.Add(d.Pack()) }

// Len returns the number of instructions accumulated since the last Reset.
func (a *Accumulator) Len() int { return a.n }

// Full reports whether the trace has reached the maximum trace length and
// must terminate (paper: limit of 16 instructions).
func (a *Accumulator) Full() bool { return a.n >= isa.MaxTraceLen }

// Value returns the current signature.
func (a *Accumulator) Value() uint64 { return a.sig }

// Reset clears the accumulator in preparation for the next trace.
func (a *Accumulator) Reset() { a.sig, a.n = 0, 0 }

// Of computes the signature of a complete instruction sequence.
func Of(insts []isa.Instruction) uint64 {
	var a Accumulator
	for _, inst := range insts {
		a.AddSignals(isa.Decode(inst))
	}
	return a.Value()
}

// Parity returns the even-parity bit of a signature, used to parity-protect
// ITR cache lines (Section 2.4): true when v has an odd number of set bits.
func Parity(v uint64) bool { return bits.OnesCount64(v)%2 == 1 }

// ControlState is the one-hot-protected encoding of the ITR ROB control bits
// {chk, miss, retry} (Section 2.4). Exactly one of the four architected bits
// must be set; any other pattern indicates a fault on the control bits
// themselves.
type ControlState uint8

// Architected one-hot control states (Section 2.4).
const (
	// CtrlNone: neither chk nor miss set yet - ITR cache access pending.
	CtrlNone ControlState = 0b0001
	// CtrlChkRetry: checked, mismatch observed - retry required.
	CtrlChkRetry ControlState = 0b0010
	// CtrlChk: checked, signatures matched.
	CtrlChk ControlState = 0b0100
	// CtrlMiss: ITR cache miss - signature must be installed at commit.
	CtrlMiss ControlState = 0b1000
)

// Valid reports whether s is one of the four architected one-hot states.
func (s ControlState) Valid() bool {
	switch s {
	case CtrlNone, CtrlChkRetry, CtrlChk, CtrlMiss:
		return true
	}
	return false
}

// Checked reports whether the trace has completed its ITR cache check.
func (s ControlState) Checked() bool { return s == CtrlChk || s == CtrlChkRetry }

// Retry reports whether a signature mismatch requires a flush-and-retry.
func (s ControlState) Retry() bool { return s == CtrlChkRetry }

// Miss reports whether the trace missed in the ITR cache.
func (s ControlState) Miss() bool { return s == CtrlMiss }

func (s ControlState) String() string {
	switch s {
	case CtrlNone:
		return "none"
	case CtrlChkRetry:
		return "chk+retry"
	case CtrlChk:
		return "chk"
	case CtrlMiss:
		return "miss"
	default:
		return fmt.Sprintf("invalid(%#04b)", uint8(s))
	}
}
