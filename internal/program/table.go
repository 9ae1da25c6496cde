package program

import "itr/internal/isa"

// DecodeTable is the per-static-instruction decode memoization exploited by
// every simulator hot loop. The paper's central observation is that decode
// signals depend only on the static instruction, never on data — so the full
// Table 2 signal vector and its packed 64-bit word can be computed once per
// static instruction at program-build time and reused for every dynamic
// instance. The table turns the per-dynamic-instruction decode of the
// functional runner, the trace former, and the signature oracle into an array
// index.
//
// A DecodeTable is immutable after construction and safe for concurrent use
// by any number of goroutines (the parallel sweep engine shares one table per
// cached program across all workers). Fault injection never mutates the
// table: injectors corrupt the per-dynamic-instance copy of the signals after
// the table lookup, exactly as a transient upsets one decode event in
// hardware while the instruction image stays clean.
type DecodeTable struct {
	sigs  []isa.DecodeSignals
	words []uint64
}

// Out-of-image fetches decode as halt, mirroring Program.Fetch.
var (
	haltSignals = isa.Decode(isa.Instruction{Op: isa.OpHalt})
	haltWord    = isa.Decode(isa.Instruction{Op: isa.OpHalt}).Pack()
)

// newDecodeTable precomputes the signal vectors and packed words of insts.
func newDecodeTable(insts []isa.Instruction) *DecodeTable {
	t := &DecodeTable{
		sigs:  make([]isa.DecodeSignals, len(insts)),
		words: make([]uint64, len(insts)),
	}
	for i, inst := range insts {
		d := isa.Decode(inst)
		t.sigs[i] = d
		t.words[i] = d.Pack()
	}
	return t
}

// Len returns the number of static instructions covered by the table.
func (t *DecodeTable) Len() int { return len(t.sigs) }

// Words returns the packed signal words of the whole image, indexed by pc.
// The slice is shared and must not be modified.
func (t *DecodeTable) Words() []uint64 { return t.words }

// Signals returns the decode-signal vector of the instruction at pc.
// Out-of-image pcs (possible under PC faults) decode as halt.
func (t *DecodeTable) Signals(pc uint64) isa.DecodeSignals {
	if pc >= uint64(len(t.sigs)) {
		return haltSignals
	}
	return t.sigs[pc]
}

// Word returns the packed 64-bit signal word of the instruction at pc.
// Out-of-image pcs decode as halt.
func (t *DecodeTable) Word(pc uint64) uint64 {
	if pc >= uint64(len(t.words)) {
		return haltWord
	}
	return t.words[pc]
}
