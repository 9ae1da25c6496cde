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
// is a property of the image, and so are the instructions and length of the
// trace starting at any PC: TraceSig serves the first from a second per-PC
// array, and Records the predecoded trace records functional streams run
// from, each built once on first use.
//
// A DecodeTable never changes once built, except that its trace signature
// and trace record arrays are each filled on first use, once, under a
// sync.Once, before any read. It is safe for concurrent use by any number of goroutines (the
// parallel sweep engine shares one table per cached program across all
// workers). Fault injection never mutates the table: injectors corrupt the
// per-dynamic-instance copy of the signals after the table lookup, exactly as
// a transient upsets one decode event in hardware while the instruction image
// stays clean.
type DecodeTable struct {
	sigs []isa.DecodeSignals
	// words holds one packed word per static instruction and, past the
	// image end, isa.HaltWord: the words isa.ExecTrace reads beside the
	// trace records.
	words []uint64

	traceOnce sync.Once
	traceSigs []uint64 // see TraceSig

	recOnce sync.Once
	recs    []uint64 // see Records
}

// Out-of-image fetches decode as halt (isa.HaltWord packed), mirroring
// Program.Fetch.
var haltSignals = isa.Decode(isa.Instruction{Op: isa.OpHalt})

// newDecodeTable precomputes the signal vectors and packed words of insts.
func newDecodeTable(insts []isa.Instruction) *DecodeTable {
	t := &DecodeTable{
		sigs:  make([]isa.DecodeSignals, len(insts)),
		words: make([]uint64, len(insts)+1),
	}
	for i, inst := range insts {
		d := isa.Decode(inst)
		t.sigs[i] = d
		t.words[i] = d.Pack()
	}
	t.words[len(insts)] = isa.HaltWord
	return t
}

// Len returns the number of static instructions covered by the table.
func (t *DecodeTable) Len() int { return len(t.sigs) }

// Records returns the image's trace records (isa.TraceRecords) and the
// packed words isa.ExecTrace reads beside them: one per static instruction
// and a halt past the image end. The records are built on the first call,
// so only a program whose trace stream runs pays for them. Both slices are
// shared and must not be modified.
func (t *DecodeTable) Records() (recs, words []uint64) {
	t.recOnce.Do(func() { t.recs = isa.TraceRecords(t.words[:len(t.sigs)]) })
	return t.recs, t.words
}

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
		return isa.HaltWord
	}
	return t.words[pc]
}

// TraceSig returns the fault-free signature of the static trace starting at
// pc: the XOR of the words from pc up to and including the one isa.EndsTrace
// ends the trace at, or the first halt if that comes sooner. A trace that
// runs off the image end ends at the halt word Word returns there, and an
// out-of-image pc returns the halt word itself. The per-PC array behind it
// is built on the first call, so programs that never ask for a signature
// (the sweep and characterization paths) do not pay for it.
func (t *DecodeTable) TraceSig(pc uint64) uint64 {
	t.traceOnce.Do(t.buildTraceSigs)
	if pc >= uint64(len(t.traceSigs)) {
		return isa.HaltWord
	}
	return t.traceSigs[pc]
}

// buildTraceSigs walks the static trace at every pc.
func (t *DecodeTable) buildTraceSigs() {
	sigs := make([]uint64, len(t.sigs))
	for pc := range sigs {
		sigs[pc], _ = t.walk(uint64(pc))
	}
	t.traceSigs = sigs
}

// FoldTraces folds f over the static trace starting at every PC, the walk
// TraceSig folds the packed words over: entry pc is the XOR of f over the
// decode signals of that trace, and one more entry, past the image end,
// holds f of the halt every out-of-image PC decodes as. Each call builds a
// fresh slice.
func (t *DecodeTable) FoldTraces(f func(isa.DecodeSignals) uint64) []uint64 {
	folds := make([]uint64, len(t.sigs)+1)
	for pc := range t.sigs {
		_, last := t.walk(uint64(pc))
		for q := pc; q <= int(last); q++ {
			folds[pc] ^= f(t.Signals(uint64(q)))
		}
	}
	folds[len(t.sigs)] = f(haltSignals)
	return folds
}

// walk follows the static trace starting at pc until isa.EndsTrace ends it
// or a halt stops the program, and returns the trace's signature and the PC
// of its last instruction.
func (t *DecodeTable) walk(pc uint64) (value, last uint64) {
	var acc sig.Accumulator
	for ; ; pc++ {
		w := t.Word(pc)
		acc.Add(w)
		if isa.EndsTrace(w, acc.Len()) || isa.WordOpcode(w) == isa.OpHalt {
			return acc.Value(), pc
		}
	}
}

// StaticTraceCount walks the image statically (without executing) and
// returns the number of distinct trace start PCs reachable from the entry.
// A trace's successors come from its last instruction: both ways of a
// conditional branch, a direct jump's target (plus the return point of
// jal), and the next PC after a trace the length cap ended. A halt has
// none, and neither has a register-indirect jump, whose target is not
// statically knowable (jalr's return point is not followed either), so
// programs using them may undercount; the dynamic count of
// trace.Characterize is the paper's metric. workload.Build confirms every
// synthesized program against this count, so it walks only reachable starts
// and never builds TraceSig's per-PC array.
func (p *Program) StaticTraceCount() int {
	t := p.DecodeTable()
	seen := make([]bool, len(t.sigs))
	count := 0
	pending := []uint64{p.Entry}
	for len(pending) > 0 {
		pc := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if pc >= uint64(len(seen)) || seen[pc] {
			continue
		}
		seen[pc] = true
		count++
		_, last := t.walk(pc)
		switch d := t.Signals(last); {
		case !d.IsBranching():
			if d.Opcode != isa.OpHalt {
				pending = append(pending, last+1)
			}
		case !d.HasFlag(isa.FlagUncond):
			pending = append(pending, last+1, last+1+uint64(int64(int16(d.Imm))))
		case d.HasFlag(isa.FlagDirect):
			pending = append(pending, d.DirectTarget())
			if d.Opcode == isa.OpJal {
				pending = append(pending, last+1)
			}
		}
	}
	return count
}
