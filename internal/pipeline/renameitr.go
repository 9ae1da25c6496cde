package pipeline

import (
	"itr/internal/isa"
	"itr/internal/program"
)

// This file implements the rename-protection extension sketched in the
// paper's Section 1:
//
//	"Indexes into the rename map table and architectural map table
//	 generated for a trace are constant across all its instances. Recording
//	 and confirming their correctness will boost the fault coverage of the
//	 rename unit of a processor, especially when used with schemes like
//	 Register Name Authentication (RNA). For instance, RNA cannot detect
//	 pure source renaming errors like reading from a wrong index in the
//	 rename map table."
//
// The rename unit presents architectural register indexes to the rename map
// table. A transient fault in that index logic reads (or writes) the wrong
// map entry: the decode signals are intact — so the frontend ITR signature
// cannot see the fault — but the instruction silently consumes the wrong
// value. Because the index stream of a trace depends only on its
// instructions, ITR applies: a per-trace XOR signature of the map indexes,
// stored in a second ITR-cache-backed checker, detects the corruption on
// the trace's next instance.

// RenameIndexes is the set of rename-map indexes one instruction presents
// to the map table.
type RenameIndexes struct {
	Src1, Src2 isa.RegID
	Dst        isa.RegID
	NSrc       uint8
	NDst       uint8
	FP         bool
}

// renameIndexesOf derives the fault-free index stream from decode signals.
func renameIndexesOf(d isa.DecodeSignals) RenameIndexes {
	return RenameIndexes{
		Src1: d.Rsrc1 & 0x1f,
		Src2: d.Rsrc2 & 0x1f,
		Dst:  d.Rdst & 0x1f,
		NSrc: d.NumRsrc,
		NDst: d.NumRdst,
		FP:   d.HasFlag(isa.FlagFP),
	}
}

// pack serializes the index set for XOR signature accumulation.
func (r RenameIndexes) pack() uint64 {
	var w uint64
	w |= uint64(r.Src1 & 0x1f)
	w |= uint64(r.Src2&0x1f) << 5
	w |= uint64(r.Dst&0x1f) << 10
	w |= uint64(r.NSrc&0x3) << 15
	w |= uint64(r.NDst&0x1) << 17
	if r.FP {
		w |= 1 << 18
	}
	return w
}

// RenameTraceSigs returns the fault-free rename signature of the static
// trace starting at every PC of tab's image, with one more entry past the
// image end for the halt every out-of-image PC decodes as
// (DecodeTable.FoldTraces): the signature a rename checker holds for a trace
// whose instructions all presented their true map indexes.
func RenameTraceSigs(tab *program.DecodeTable) []uint64 {
	return tab.FoldTraces(func(d isa.DecodeSignals) uint64 { return renameIndexesOf(d).pack() })
}

// RenameFaultHook lets an injector corrupt the rename-map indexes of one
// dynamic instruction — a fault strictly downstream of decode, invisible to
// the frontend ITR signature.
type RenameFaultHook func(decodeIndex int64, ri RenameIndexes) RenameIndexes

// SetRenameFaultHook installs the rename-index corruption hook.
func (c *CPU) SetRenameFaultHook(h RenameFaultHook) { c.renameFaultHook = h }

// applyRenameIndexes rewrites the executed signal vector so the instruction
// consumes exactly the registers the (possibly corrupted) rename indexes
// select. The decode-signal word used for the frontend ITR signature is NOT
// changed: the fault happened after decode.
func applyRenameIndexes(d isa.DecodeSignals, ri RenameIndexes) isa.DecodeSignals {
	d.Rsrc1 = ri.Src1 & 0x1f
	d.Rsrc2 = ri.Src2 & 0x1f
	d.Rdst = ri.Dst & 0x1f
	return d
}
