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
// Each iteration runs one whole trace: isa.ExecTrace executes the decode
// table's clean words in place on the registers and memory, folding each word
// into the signature, and the loop hands the finished trace to fn. A trace
// cut short by the budget or by a halt (a PC outside the image decodes as
// one) is delivered as Partial, as Former.Flush would deliver it.
func Stream(p *program.Program, limit int64, fn func(Event) bool) int64 {
	words := p.DecodeTable().Words()
	mem := isa.NewMemory()
	st := &isa.ArchState{Mem: mem, PC: p.Entry}
	executed := int64(0)
	for limit <= 0 || executed < limit {
		room := isa.MaxTraceLen
		if limit > 0 && limit-executed < int64(room) {
			room = int(limit - executed)
		}
		start := st.PC
		n, sig, branch, halt := st.ExecTrace(mem, words, room)
		executed += int64(n)
		ev := Event{StartPC: start, Len: n, Sig: sig, Branch: branch, Partial: !branch && n < isa.MaxTraceLen}
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

// StaticTraceCount walks the program image statically (without executing)
// and returns the number of distinct trace start PCs reachable by sequential
// decomposition from the entry point. Register-indirect jump targets are not
// statically knowable, so programs using them may undercount; it is a
// structural helper used in tests. The dynamic count from Characterize is
// the paper's metric.
func StaticTraceCount(p *program.Program) int {
	tab := p.DecodeTable()
	starts := make(map[uint64]bool)
	pending := []uint64{p.Entry}
	for len(pending) > 0 {
		pc := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if pc >= uint64(len(p.Insts)) || starts[pc] {
			continue
		}
		starts[pc] = true
		// Walk the trace from pc to its terminator.
		cur := pc
		n := 0
		for {
			inst := p.Fetch(cur)
			n++
			d := tab.Signals(cur)
			if d.IsBranching() {
				// Successors: fall-through trace and target trace.
				if !d.HasFlag(isa.FlagUncond) {
					pending = append(pending, cur+1)
					pending = append(pending, cur+1+uint64(int64(int16(inst.Imm))))
				} else if inst.Op == isa.OpJ || inst.Op == isa.OpJal {
					pending = append(pending, uint64(inst.Target))
					if inst.Op == isa.OpJal {
						pending = append(pending, cur+1)
					}
				}
				break
			}
			if inst.Op == isa.OpHalt {
				break
			}
			if n >= isa.MaxTraceLen {
				pending = append(pending, cur+1)
				break
			}
			cur++
		}
	}
	return len(starts)
}
