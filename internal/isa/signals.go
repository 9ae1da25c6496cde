package isa

import "fmt"

// DecodeSignals is the decode-signal vector of the paper's Table 2. It is
// the exact set of signals the decode unit produces for one instruction, and
// the unit of both signature generation and fault injection.
//
// Field widths (total 64 bits):
//
//	opcode   8   instruction opcode
//	flags    12  decoded control flags
//	shamt    5   shift amount
//	rsrc1    5   source register operand
//	rsrc2    5   source register operand
//	rdst     5   destination register operand
//	lat      2   execution latency
//	imm      16  immediate
//	num_rsrc 2   number of source operands
//	num_rdst 1   number of destination operands
//	mem_size 3   size of memory word
type DecodeSignals struct {
	Opcode  Opcode
	Flags   uint16
	Shamt   uint8
	Rsrc1   RegID
	Rsrc2   RegID
	Rdst    RegID
	Lat     LatClass
	Imm     uint16
	NumRsrc uint8
	NumRdst uint8
	MemSize uint8
}

// SignalBits is the total width of the decode-signal vector (Table 2).
const SignalBits = 64

// Bit layout of the packed 64-bit signal word, low bits first. The layout
// follows Table 2's row order.
const (
	bitOpcode  = 0  // width 8
	bitFlags   = 8  // width 12
	bitShamt   = 20 // width 5
	bitRsrc1   = 25 // width 5
	bitRsrc2   = 30 // width 5
	bitRdst    = 35 // width 5
	bitLat     = 40 // width 2
	bitImm     = 42 // width 16
	bitNumRsrc = 58 // width 2
	bitNumRdst = 60 // width 1
	bitMemSize = 61 // width 3
)

// Pack serializes the signal vector into its architected 64-bit word. The
// packed form is what signature generation XOR-combines and what fault
// injection flips bits of.
func (d DecodeSignals) Pack() uint64 {
	var w uint64
	w |= uint64(d.Opcode) << bitOpcode
	w |= uint64(d.Flags&FlagsMask) << bitFlags
	w |= uint64(d.Shamt&0x1f) << bitShamt
	w |= uint64(d.Rsrc1&0x1f) << bitRsrc1
	w |= uint64(d.Rsrc2&0x1f) << bitRsrc2
	w |= uint64(d.Rdst&0x1f) << bitRdst
	w |= uint64(d.Lat&0x3) << bitLat
	w |= uint64(d.Imm) << bitImm
	w |= uint64(d.NumRsrc&0x3) << bitNumRsrc
	w |= uint64(d.NumRdst&0x1) << bitNumRdst
	w |= uint64(d.MemSize&0x7) << bitMemSize
	return w
}

// UnpackSignals deserializes a packed 64-bit signal word.
func UnpackSignals(w uint64) DecodeSignals {
	return DecodeSignals{
		Opcode:  Opcode(w >> bitOpcode),
		Flags:   uint16(w>>bitFlags) & FlagsMask,
		Shamt:   uint8(w>>bitShamt) & 0x1f,
		Rsrc1:   RegID(w>>bitRsrc1) & 0x1f,
		Rsrc2:   RegID(w>>bitRsrc2) & 0x1f,
		Rdst:    RegID(w>>bitRdst) & 0x1f,
		Lat:     LatClass(w>>bitLat) & 0x3,
		Imm:     uint16(w >> bitImm),
		NumRsrc: uint8(w>>bitNumRsrc) & 0x3,
		NumRdst: uint8(w>>bitNumRdst) & 0x1,
		MemSize: uint8(w>>bitMemSize) & 0x7,
	}
}

// FlipBit returns a copy of d with the signal bit at position pos (0-63 in
// the packed layout) inverted — the paper's single-event-upset fault model on
// decode signals.
func (d DecodeSignals) FlipBit(pos int) DecodeSignals {
	return UnpackSignals(d.Pack() ^ (1 << uint(pos&63)))
}

// SignalField describes which Table 2 field a packed bit position belongs
// to, for fault-injection reporting.
func SignalField(pos int) string {
	switch {
	case pos < 0 || pos >= SignalBits:
		return "invalid"
	case pos < bitFlags:
		return "opcode"
	case pos < bitShamt:
		return FlagName(pos - bitFlags)
	case pos < bitRsrc1:
		return "shamt"
	case pos < bitRsrc2:
		return "rsrc1"
	case pos < bitRdst:
		return "rsrc2"
	case pos < bitLat:
		return "rdst"
	case pos < bitImm:
		return "lat"
	case pos < bitNumRsrc:
		return "imm"
	case pos < bitNumRdst:
		return "num_rsrc"
	case pos < bitMemSize:
		return "num_rdst"
	default:
		return "mem_size"
	}
}

// HasFlag reports whether the given control flag is set.
func (d DecodeSignals) HasFlag(f uint16) bool { return d.Flags&f != 0 }

// WordIsBranching reports whether a packed signal word describes a
// control-transfer instruction (the trace-terminating condition), testing
// the flag on the word without unpacking the vector.
func WordIsBranching(w uint64) bool { return w>>bitFlags&uint64(FlagBranch) != 0 }

// WordOpcode extracts the opcode field from a packed signal word.
func WordOpcode(w uint64) Opcode { return Opcode(w >> bitOpcode) }

// IsBranching reports whether the signals describe a control-transfer
// instruction, i.e. whether this instruction terminates a trace.
func (d DecodeSignals) IsBranching() bool { return d.HasFlag(FlagBranch) }

func (d DecodeSignals) String() string {
	return fmt.Sprintf("%s r%d,r%d->r%d imm=%#x flags=%#03x lat=%d",
		d.Opcode, d.Rsrc1, d.Rsrc2, d.Rdst, d.Imm, d.Flags, d.Lat)
}
