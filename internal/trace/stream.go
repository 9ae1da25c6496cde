package trace

import (
	"itr/internal/isa"
	"itr/internal/program"
)

// Stream functionally executes p from its entry for at most limit dynamic
// instructions (limit <= 0 means until it halts), forming traces and invoking
// fn for each completed trace event (including a final partial trace when
// the run ends mid-trace). Returning false from fn stops the run. It returns
// the number of dynamic instructions executed.
//
// Each iteration runs one whole trace: isa.ExecTrace runs the decode table's
// predecoded trace records from the current PC in one straight-line loop,
// in place on the registers and memory, folding each executed word into the
// signature, and the loop hands the finished trace to fn. The records carry
// each static trace's length, so no instruction is tested for the trace end.
// A trace that isa.EndsTrace did not end, because the budget or a halt (a PC
// outside the image decodes as one) cut it short, is delivered as Partial,
// as Former.Flush would deliver it.
func Stream(p *program.Program, limit int64, fn func(Event) bool) int64 {
	recs, words := p.DecodeTable().Records()
	mem := isa.NewMemory()
	st := &isa.ArchState{Mem: mem, PC: p.Entry}
	executed := int64(0)
	for limit <= 0 || executed < limit {
		room := isa.MaxTraceLen
		if limit > 0 && limit-executed < int64(room) {
			room = int(limit - executed)
		}
		start := st.PC
		n, sig, ended, halt := st.ExecTrace(mem, recs, words, room)
		executed += int64(n)
		ev := Event{StartPC: start, Len: n, Sig: sig, Partial: !ended}
		if !fn(ev) || halt {
			break
		}
	}
	return executed
}

// Characterize runs p for at most limit dynamic instructions and returns its
// repetition characterization.
func Characterize(p *program.Program, limit int64) *Characterizer {
	c := NewCharacterizer()
	Stream(p, limit, func(ev Event) bool {
		c.Add(ev)
		return true
	})
	return c
}
