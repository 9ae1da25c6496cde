package trace_test

import (
	"reflect"
	"testing"

	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/trace"
)

// fuzzOps is the opcode a fuzz byte selects: every valid opcode, the
// reserved invalid opcode 0 and one opcode past the defined range.
var fuzzOps = func() (ops []isa.Opcode) {
	for op := 0; op < 256; op++ {
		if isa.Opcode(op).Valid() || op == 0 || op == 255 {
			ops = append(ops, isa.Opcode(op))
		}
	}
	return ops
}()

// fuzzImage builds a short instruction image from code, six bytes per
// instruction: opcode, rd, rs1, rs2 (whose high bits are the shift amount)
// and a 16-bit immediate. Registers are drawn from r0-r7 so instructions
// feed each other. A branch or direct jump targets (immediate mod image
// length+8) - 4, so its target lies before the image (wrapping to a huge
// PC), inside it, or just past its end; jr and jalr go wherever their
// register points, which lui and addi can make distant.
func fuzzImage(code []byte) []isa.Instruction {
	const maxInsts = 64
	n := min(len(code)/6, maxInsts)
	insts := make([]isa.Instruction, n)
	for i := range insts {
		b := code[6*i : 6*i+6]
		inst := isa.Instruction{
			Op:    fuzzOps[int(b[0])%len(fuzzOps)],
			Rd:    isa.RegID(b[1] & 7),
			Rs1:   isa.RegID(b[2] & 7),
			Rs2:   isa.RegID(b[3] & 7),
			Shamt: b[3] >> 3,
			Imm:   uint16(b[4]) | uint16(b[5])<<8,
		}
		target := int64(inst.Imm)%int64(n+8) - 4
		switch {
		case inst.Op == isa.OpJ || inst.Op == isa.OpJal:
			inst.Target = uint32(target) & (1<<26 - 1)
		case inst.Op.IsBranch() && inst.Op != isa.OpJr && inst.Op != isa.OpJalr:
			inst.Imm = uint16(target - int64(i) - 1)
		}
		insts[i] = inst
	}
	return insts
}

// firstTraceLen is the length of the trace the program.Run-driven former
// forms when execution starts at pc: the dynamic counterpart of the static
// walk from pc, since a trace's instructions do not depend on data.
func firstTraceLen(p *program.Program, pc uint64) int {
	tab := p.DecodeTable()
	st := isa.NewArchState()
	st.PC = pc
	var former trace.Former
	n := 0
	program.RunFrom(p, st, isa.MaxTraceLen, func(pc uint64, _ isa.Instruction, _ isa.Outcome) bool {
		if former.StepTerm(pc, tab.Word(pc)) {
			n = former.Take().Len
			return false
		}
		return true
	})
	if ev, ok := former.Flush(); ok {
		n = ev.Len
	}
	return n
}

// FuzzTraceRecords: on an image built from the fuzz bytes, trace.Stream
// returns the events and executed count of the program.Run-driven
// reference at a budget of 1 + budget%4096 instructions, and the trace
// record at every PC, and past the image end, holds the length of the
// static trace starting there: the former's from that PC, and the span
// whose words fold into the decode table's TraceSig (the static walk's).
func FuzzTraceRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, budget uint16, code []byte) {
		insts := fuzzImage(code)
		if len(insts) == 0 {
			return
		}
		p := &program.Program{Name: "fuzz", Insts: insts}
		limit := 1 + int64(budget%4096)
		wantEv, wantN := collect(runStream, p, limit, 0)
		gotEv, gotN := collect(trace.Stream, p, limit, 0)
		if gotN != wantN || !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("budget %d: Stream executed %d, %d events %+v\nreference executed %d, %d events %+v",
				limit, gotN, len(gotEv), gotEv, wantN, len(wantEv), wantEv)
		}
		tab := p.DecodeTable()
		recs, words := tab.Records()
		if len(recs) != len(insts)+1 || len(words) != len(recs) {
			t.Fatalf("%d records, %d words for %d instructions", len(recs), len(words), len(insts))
		}
		for pc := range recs {
			n := isa.RecordLen(recs[pc])
			if want := firstTraceLen(p, uint64(pc)); n != want {
				t.Fatalf("pc %d: record length %d, the former's trace %d", pc, n, want)
			}
			sig := uint64(0)
			for _, w := range words[pc : pc+n] {
				sig ^= w
			}
			if want := tab.TraceSig(uint64(pc)); sig != want {
				t.Fatalf("pc %d: the %d words from it fold to %#x, TraceSig %#x", pc, n, sig, want)
			}
		}
	})
}
