package trace_test

import (
	"testing"

	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/trace"
	"itr/internal/workload"
)

// TestTraceSigMatchesStream: the decode table's static trace signatures are
// what the executor forms. For every suite benchmark, each complete
// (non-Partial) event of trace.Stream carries DecodeTable.TraceSig of its
// start PC.
func TestTraceSigMatchesStream(t *testing.T) {
	for _, p := range workload.Suite() {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		tab := prog.DecodeTable()
		checked := 0
		trace.Stream(prog, 200_000, func(ev trace.Event) bool {
			if ev.Partial {
				return true
			}
			checked++
			if got := tab.TraceSig(ev.StartPC); got != ev.Sig {
				t.Errorf("%s: TraceSig(%d) = %#x, stream formed %#x (len %d)", p.Name, ev.StartPC, got, ev.Sig, ev.Len)
				return false
			}
			return true
		})
		if checked == 0 {
			t.Errorf("%s: no complete events checked", p.Name)
		}
	}
}

// TestTraceSigCases pins TraceSig on hand-built images against signatures
// folded here from isa.Decode: a halt ends a trace and is part of it, a
// straight-line trace stops at MaxTraceLen words, a trace running off the
// image end takes the halt an out-of-image PC decodes as (unless the cap
// comes first), and a PC past the image returns the halt word itself. Every
// event of an unbounded Stream over the same image, partial or not, must
// carry the same signature, since no budget cuts it.
func TestTraceSigCases(t *testing.T) {
	halt := isa.Instruction{Op: isa.OpHalt}
	haltWord := isa.Decode(halt).Pack()
	branch := isa.Instruction{Op: isa.OpBeq, Rs1: 1, Rs2: 2, Imm: 1}
	haltMid := append(straight(3, halt), straight(4, halt)...)
	type probe struct {
		pc       uint64
		from, to int  // insts[from:to] fold into the signature
		offImage bool // plus the halt word of the first PC past the image
	}
	cases := []struct {
		name   string
		insts  []isa.Instruction
		probes []probe
	}{
		{"halt-mid-trace", haltMid, []probe{{0, 0, 4, false}, {2, 2, 4, false}, {3, 3, 4, false}, {4, 4, 9, false}}},
		{"branch-ends-trace", straight(3, branch, halt), []probe{{0, 0, 4, false}, {3, 3, 4, false}, {4, 4, 5, false}}},
		{"cap", straight(40, halt), []probe{{0, 0, 16, false}, {5, 5, 21, false}, {16, 16, 32, false}, {30, 30, 41, false}}},
		{"off-image", straight(5), []probe{{0, 0, 5, true}, {4, 4, 5, true}}},
		{"off-image-at-cap", straight(isa.MaxTraceLen), []probe{{0, 0, 16, false}, {1, 1, 16, true}}},
		{"off-image-is-16th", straight(isa.MaxTraceLen - 1), []probe{{0, 0, 15, true}}},
	}
	for _, c := range cases {
		p := &program.Program{Name: c.name, Insts: c.insts}
		tab := p.DecodeTable()
		for _, pr := range c.probes {
			var want uint64
			for _, inst := range c.insts[pr.from:pr.to] {
				want ^= isa.Decode(inst).Pack()
			}
			if pr.offImage {
				want ^= haltWord
			}
			if got := tab.TraceSig(pr.pc); got != want {
				t.Errorf("%s: TraceSig(%d) = %#x, want %#x", c.name, pr.pc, got, want)
			}
		}
		for _, pc := range []uint64{uint64(len(c.insts)), uint64(len(c.insts)) + 7, 1 << 40, ^uint64(0)} {
			if got := tab.TraceSig(pc); got != haltWord {
				t.Errorf("%s: TraceSig(%d) past the image = %#x, want the halt word %#x", c.name, pc, got, haltWord)
			}
		}
		trace.Stream(p, 0, func(ev trace.Event) bool {
			if got := tab.TraceSig(ev.StartPC); got != ev.Sig {
				t.Errorf("%s: TraceSig(%d) = %#x, stream formed %#x (len %d)", c.name, ev.StartPC, got, ev.Sig, ev.Len)
			}
			return true
		})
	}
}
