package trace

import (
	"testing"
	"testing/quick"

	"itr/internal/isa"
	"itr/internal/program"
)

func wordOf(op isa.Opcode) uint64 { return isa.Decode(isa.Instruction{Op: op}).Pack() }

// step feeds the word w at pc to f as the pipeline's dispatch does, taking
// the trace when StepTerm reports its end.
func step(f *Former, pc, w uint64) (Event, bool) {
	if f.StepTerm(pc, w) {
		return f.Take(), true
	}
	return Event{}, false
}

func TestFormerTerminatesOnBranch(t *testing.T) {
	var f Former
	if _, done := step(&f, 10, wordOf(isa.OpAdd)); done {
		t.Fatal("non-branch terminated trace")
	}
	ev, done := step(&f, 11, wordOf(isa.OpBeq))
	if !done {
		t.Fatal("branch did not terminate trace")
	}
	if ev.StartPC != 10 || ev.Len != 2 || ev.Partial {
		t.Fatalf("event: %+v", ev)
	}
}

func TestFormerTerminatesAt16(t *testing.T) {
	var f Former
	for i := 0; i < isa.MaxTraceLen-1; i++ {
		if _, done := step(&f, uint64(i), wordOf(isa.OpAdd)); done {
			t.Fatalf("terminated early at %d", i)
		}
	}
	ev, done := step(&f, 15, wordOf(isa.OpAdd))
	if !done {
		t.Fatal("did not terminate at 16")
	}
	if ev.Len != 16 || ev.Partial {
		t.Fatalf("event: %+v", ev)
	}
}

func TestFormerNextTraceStartsAfterTerminator(t *testing.T) {
	var f Former
	step(&f, 10, wordOf(isa.OpBeq)) // 1-instruction trace
	ev, done := step(&f, 42, wordOf(isa.OpJ))
	if !done || ev.StartPC != 42 {
		t.Fatalf("second trace: %+v done=%v", ev, done)
	}
}

func TestFormerSignatureMatchesAccumulation(t *testing.T) {
	insts := []isa.Instruction{
		{Op: isa.OpAddi, Rd: 1, Imm: 7},
		{Op: isa.OpLw, Rd: 2, Rs1: 1},
		{Op: isa.OpBne, Rs1: 2, Rs2: 0, Imm: 5},
	}
	var f Former
	var ev Event
	var want uint64
	done := false
	for i, inst := range insts {
		w := isa.Decode(inst).Pack()
		want ^= w
		ev, done = step(&f, uint64(100+i), w)
	}
	if !done {
		t.Fatal("trace not closed")
	}
	if ev.Sig != want {
		t.Fatalf("sig %#x, want %#x", ev.Sig, want)
	}
}

func TestFormerFlushAndReset(t *testing.T) {
	var f Former
	step(&f, 5, wordOf(isa.OpAdd))
	ev, ok := f.Flush()
	if !ok || ev.StartPC != 5 || ev.Len != 1 || ev.Sig != wordOf(isa.OpAdd) {
		t.Fatalf("flush: %+v ok=%v", ev, ok)
	}
	if _, ok := f.Flush(); ok {
		t.Fatal("double flush succeeded")
	}

	step(&f, 6, wordOf(isa.OpAdd))
	f.Reset()
	if ev, ok := f.Flush(); ok {
		t.Fatalf("reset left an open trace: %+v", ev)
	}
	ev, done := step(&f, 9, wordOf(isa.OpBeq))
	if !done || ev.StartPC != 9 || ev.Len != 1 {
		t.Fatalf("post-reset trace: %+v", ev)
	}
}

// Property: the trace former partitions any instruction stream — every
// instruction lands in exactly one trace, every trace has 1..16
// instructions, and only isa.EndsTrace ends one: a complete trace ends at a
// branch or at 16 instructions, no branch sits inside a trace, and a halt
// ends nothing (the pipeline fetches past it down the wrong path).
func TestPropertyFormerPartitionsStream(t *testing.T) {
	ops := []isa.Opcode{isa.OpAdd, isa.OpLw, isa.OpSw, isa.OpBeq, isa.OpJ, isa.OpMul, isa.OpHalt}
	if err := quick.Check(func(sel []uint8) bool {
		var f Former
		words := make([]uint64, len(sel))
		var events []Event
		for i, s := range sel {
			words[i] = wordOf(ops[int(s)%len(ops)])
			if ev, done := step(&f, uint64(i), words[i]); done {
				events = append(events, ev)
			}
		}
		if ev, ok := f.Flush(); ok {
			events = append(events, ev)
		}
		at := 0
		for i, ev := range events {
			if ev.Len < 1 || ev.Len > isa.MaxTraceLen || ev.StartPC != uint64(at) {
				return false
			}
			if ev.Partial && i != len(events)-1 {
				return false // only the flushed tail is partial
			}
			tr := words[at : at+ev.Len]
			for _, w := range tr[:ev.Len-1] {
				if isa.WordIsBranching(w) {
					return false
				}
			}
			if ends := isa.WordIsBranching(tr[ev.Len-1]) || ev.Len == isa.MaxTraceLen; ends == ev.Partial {
				return false
			}
			at += ev.Len
		}
		return at == len(sel)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (the ITR premise): a static trace identified by start PC always
// produces the same signature across dynamic instances.
func TestPropertySignatureStablePerStartPC(t *testing.T) {
	p := loopProgram(t)
	c := NewCharacterizer()
	Stream(p, 10000, func(ev Event) bool {
		c.Add(ev)
		return true
	})
	if got := c.SignatureConflicts(); got != 0 {
		t.Fatalf("%d static traces produced conflicting signatures", got)
	}
	if c.StaticTraces() == 0 {
		t.Fatal("no traces observed")
	}
}

func loopProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("loop")
	b.OpImm(isa.OpAddi, 1, 0, 500)
	b.Label("top")
	b.OpImm(isa.OpAddi, 2, 2, 3)
	b.Op(isa.OpAdd, 3, 2, 2)
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "top")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCharacterizerCounts(t *testing.T) {
	c := NewCharacterizer()
	// Trace A (pc 0, 4 insts) repeats at distance 7; trace B once.
	c.Add(Event{StartPC: 0, Len: 4, Sig: 1})
	c.Add(Event{StartPC: 100, Len: 3, Sig: 2})
	c.Add(Event{StartPC: 0, Len: 4, Sig: 1})
	if c.StaticTraces() != 2 {
		t.Fatalf("static = %d", c.StaticTraces())
	}
	if c.DynamicInstructions() != 11 {
		t.Fatalf("dyn = %d", c.DynamicInstructions())
	}
	// Repeat distance for A's second instance: started at dyn 7, previous
	// start at 0 → distance 7, weight 4 instructions.
	if got := c.RepeatFractionWithin(8); got < 36 || got > 37 {
		t.Fatalf("repeat fraction = %v, want 4/11", got)
	}
	if got := c.RepeatFractionWithin(7); got != 0 {
		t.Fatalf("distance 7 not < 7: %v", got)
	}
}

func TestCharacterizerPopularityCDF(t *testing.T) {
	c := NewCharacterizer()
	for i := 0; i < 90; i++ {
		c.Add(Event{StartPC: 1, Len: 1})
	}
	for i := 0; i < 10; i++ {
		c.Add(Event{StartPC: uint64(100 + i), Len: 1})
	}
	pts := c.PopularityCDF(1, 3)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Y != 90 {
		t.Fatalf("top-1 coverage = %v, want 90", pts[0].Y)
	}
	if got := c.CoverageAtTopK(11); got != 100 {
		t.Fatalf("top-11 = %v", got)
	}
}

func TestCharacterizerDistanceBuckets(t *testing.T) {
	c := NewCharacterizer()
	// Build a known distance distribution: 10-inst trace repeating
	// back-to-back (distance 10).
	for i := 0; i < 100; i++ {
		c.Add(Event{StartPC: 7, Len: 10})
	}
	pts := c.DistanceBuckets(500, 10000)
	if len(pts) != 20 {
		t.Fatalf("buckets = %d", len(pts))
	}
	// 99 of 100 instances are repeats: 990/1000 = 99%.
	if pts[0].CumulativePct != 99 {
		t.Fatalf("first bucket = %v, want 99", pts[0].CumulativePct)
	}
	if pts[19].CumulativePct != 99 {
		t.Fatalf("monotone tail = %v", pts[19].CumulativePct)
	}
}

func TestCharacterizerEmpty(t *testing.T) {
	c := NewCharacterizer()
	if got := c.RepeatFractionWithin(1000); got != 0 {
		t.Fatalf("empty fraction = %v", got)
	}
	if pts := c.PopularityCDF(100, 500); len(pts) != 5 {
		t.Fatalf("empty CDF points = %d", len(pts))
	}
}

func TestStreamEndsWithPartialTrace(t *testing.T) {
	p := loopProgram(t)
	var events []Event
	executed := Stream(p, 10, func(ev Event) bool {
		events = append(events, ev)
		return true
	})
	if executed != 10 {
		t.Fatalf("executed = %d", executed)
	}
	total := 0
	for _, ev := range events {
		total += ev.Len
	}
	if total != 10 {
		t.Fatalf("trace instructions %d != executed 10 (flush missing?)", total)
	}
}

func TestStreamEarlyStop(t *testing.T) {
	p := loopProgram(t)
	n := 0
	Stream(p, 1000, func(ev Event) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("callbacks = %d", n)
	}
}

func TestStaticTraceCountOnLoop(t *testing.T) {
	p := loopProgram(t)
	static := p.StaticTraceCount()
	// Dynamic observation must agree, modulo the never-executed halt path
	// (here the halt IS executed, so counts match exactly).
	c := Characterize(p, 0)
	if static != c.StaticTraces() {
		t.Fatalf("static walk %d != dynamic %d", static, c.StaticTraces())
	}
}

func TestCharacterizeRunsProgram(t *testing.T) {
	p := loopProgram(t)
	c := Characterize(p, 2000)
	if c.DynamicInstructions() != 2000 {
		t.Fatalf("dyn = %d", c.DynamicInstructions())
	}
	// The loop body dominates: top-2 traces should cover nearly all
	// instructions.
	if got := c.CoverageAtTopK(2); got < 90 {
		t.Fatalf("top-2 coverage = %v", got)
	}
}

func TestFlushMarksPartial(t *testing.T) {
	var f Former
	step(&f, 5, wordOf(isa.OpAdd))
	ev, ok := f.Flush()
	if !ok || !ev.Partial {
		t.Fatalf("flush event: %+v", ev)
	}
	// Regular terminations are never partial.
	ev, done := step(&f, 6, wordOf(isa.OpBeq))
	if !done || ev.Partial {
		t.Fatalf("branch-terminated event marked partial: %+v", ev)
	}
}

func TestPartialEventDoesNotFlagConflict(t *testing.T) {
	c := NewCharacterizer()
	c.Add(Event{StartPC: 5, Len: 4, Sig: 0xaaaa})
	// A truncated instance of the same trace carries a prefix signature.
	c.Add(Event{StartPC: 5, Len: 2, Sig: 0xbbbb, Partial: true})
	if c.SignatureConflicts() != 0 {
		t.Fatal("partial instance flagged as signature conflict")
	}
	// A full instance with a different signature IS a conflict.
	c.Add(Event{StartPC: 5, Len: 4, Sig: 0xcccc})
	if c.SignatureConflicts() != 1 {
		t.Fatal("real conflict not flagged")
	}
}

func TestStaticTraceCountNeverTakenTargetsAddNothing(t *testing.T) {
	// A never-taken branch whose taken-target is the next instruction must
	// not create an extra static trace (the workload synthesizer depends
	// on this for exact Table 1 calibration).
	b := program.NewBuilder("nt")
	b.OpImm(isa.OpAddi, 1, 0, 3)
	b.Label("top")
	b.OpImm(isa.OpAddi, 2, 2, 1)
	l := "next"
	b.Branch(isa.OpBne, 0, 0, l) // never taken, target = next pc
	b.Label(l)
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "top")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	static := p.StaticTraceCount()
	dynamic := Characterize(p, 0).StaticTraces()
	if static != dynamic {
		t.Fatalf("static walk %d != dynamic %d", static, dynamic)
	}
}
