package program

import (
	"sync"

	"itr/internal/isa"
	"itr/internal/sig"
)

// DecodeTable is the per-static-instruction decode memoization exploited by
// every simulator hot loop. The paper's central observation is that decode
// signals depend only on the static instruction, never on data — so the full
// Table 2 signal vector and its packed 64-bit word can be computed once per
// static instruction at program-build time and reused for every dynamic
// instance. The table turns the per-dynamic-instruction decode of the
// functional runner, the trace former, and the signature oracle into an array
// index. For the same reason the fault-free signature of every static trace
// is a property of the image: TraceSig serves it from a second per-PC array,
// built once on first use.
//
// A DecodeTable never changes once built, except that its trace signature
// array is filled on the first TraceSig call, once, under a sync.Once, before
// any read. It is safe for concurrent use by any number of goroutines (the
// parallel sweep engine shares one table per cached program across all
// workers). Fault injection never mutates the table: injectors corrupt the
// per-dynamic-instance copy of the signals after the table lookup, exactly as
// a transient upsets one decode event in hardware while the instruction image
// stays clean.
type DecodeTable struct {
	sigs  []isa.DecodeSignals
	words []uint64

	traceOnce sync.Once
	traceSigs []uint64 // see TraceSig
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

// TraceSig returns the fault-free signature of the static trace starting at
// pc: the XOR of the words from pc up to and including the first branching
// word or halt, at most isa.MaxTraceLen of them. A trace that runs off the
// image end ends at the halt word Word returns there, and an out-of-image pc
// returns the halt word itself. The per-PC array behind it is built on the
// first call, so programs that never ask for a signature (the sweep and
// characterization paths) do not pay for it.
func (t *DecodeTable) TraceSig(pc uint64) uint64 {
	t.traceOnce.Do(t.buildTraceSigs)
	if pc >= uint64(len(t.traceSigs)) {
		return haltWord
	}
	return t.traceSigs[pc]
}

// buildTraceSigs walks the static trace at every pc with the trace-formation
// rule.
func (t *DecodeTable) buildTraceSigs() {
	sigs := make([]uint64, len(t.words))
	for pc := range sigs {
		var acc sig.Accumulator
		for cur := uint64(pc); ; cur++ {
			w := t.Word(cur)
			acc.Add(w)
			if isa.WordIsBranching(w) || acc.Full() || isa.WordOpcode(w) == isa.OpHalt {
				break
			}
		}
		sigs[pc] = acc.Value()
	}
	t.traceSigs = sigs
}
