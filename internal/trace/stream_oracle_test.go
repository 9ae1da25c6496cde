package trace_test

import (
	"reflect"
	"testing"

	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/trace"
	"itr/internal/workload"
)

// runStream is the reference trace stream: trace formation driven from a
// program.Run step callback, one closure call per executed instruction. The
// trace.Stream loop must reproduce it event for event.
func runStream(p *program.Program, limit int64, fn func(trace.Event) bool) int64 {
	tab := p.DecodeTable()
	var former trace.Former
	stop := false
	executed, _ := program.Run(p, limit, func(pc uint64, _ isa.Instruction, _ isa.Outcome) bool {
		if former.StepTerm(pc, tab.Word(pc)) && !fn(former.Take()) {
			stop = true
			return false
		}
		return true
	})
	if !stop {
		if ev, ok := former.Flush(); ok {
			fn(ev)
		}
	}
	return executed
}

type streamFunc func(*program.Program, int64, func(trace.Event) bool) int64

// collect runs stream and returns its events and executed count. With
// stopAfter > 0, fn returns false on the stopAfter-th event.
func collect(stream streamFunc, p *program.Program, limit int64, stopAfter int) ([]trace.Event, int64) {
	var events []trace.Event
	executed := stream(p, limit, func(ev trace.Event) bool {
		events = append(events, ev)
		return stopAfter <= 0 || len(events) < stopAfter
	})
	return events, executed
}

// halting returns a copy of prog cut just past every instruction its first
// few thousand dynamic instructions touch. Out-of-image fetches decode as
// halt, so the copy runs exactly like prog until control first leaves that
// range, then halts: a benchmark-shaped program whose end a test can reach
// (the suite programs themselves run for 30000 outer-loop cycles).
func halting(prog *program.Program) *program.Program {
	events, _ := collect(runStream, prog, 3000, 0)
	end := uint64(0)
	for _, ev := range events {
		end = max(end, ev.StartPC+uint64(ev.Len))
	}
	return &program.Program{Name: prog.Name + "-cut", Insts: prog.Insts[:end], Entry: prog.Entry}
}

// TestStreamMatchesRunOracle: for every suite benchmark, Stream returns the
// same events and executed count as the program.Run-driven reference when
// the budget cuts a trace in half, ends exactly on a trace boundary, lies
// past the program's halt (or is unbounded), is shorter than, equal to or
// just past one full trace, and when fn stops the run early.
func TestStreamMatchesRunOracle(t *testing.T) {
	const probe = 60_000
	for _, p := range workload.Suite() {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := collect(runStream, prog, probe, 0)
		// The first event past the middle with room to cut inside it.
		i, start := len(ref)/2, int64(0)
		for _, ev := range ref[:i] {
			start += int64(ev.Len)
		}
		for ; ref[i].Len < 2; i++ {
			start += int64(ref[i].Len)
		}
		cut := halting(prog)
		const maxHalt = 2_000_000
		_, haltAt := collect(runStream, cut, maxHalt, 0)
		if haltAt >= maxHalt {
			t.Fatalf("%s: truncated program did not halt within %d instructions", p.Name, maxHalt)
		}

		cases := []struct {
			name      string
			prog      *program.Program
			limit     int64
			stopAfter int
		}{
			{"mid-trace", prog, start + int64(ref[i].Len/2), 0},
			{"trace-boundary", prog, start, 0},
			{"past-halt", cut, haltAt + 1000, 0},
			{"unbounded", cut, 0, 0},
			{"early-stop", prog, probe, len(ref) / 3},
			{"budget-1", prog, 1, 0},
			{"budget-15", prog, 15, 0},
			{"budget-16", prog, 16, 0},
			{"budget-17", prog, 17, 0},
		}
		for _, c := range cases {
			wantEv, wantN := collect(runStream, c.prog, c.limit, c.stopAfter)
			gotEv, gotN := collect(trace.Stream, c.prog, c.limit, c.stopAfter)
			if gotN != wantN {
				t.Errorf("%s %s: executed %d, reference %d", p.Name, c.name, gotN, wantN)
			}
			if !reflect.DeepEqual(gotEv, wantEv) {
				t.Errorf("%s %s: %d events differ from the reference's %d", p.Name, c.name, len(gotEv), len(wantEv))
			}
		}
		// The cases exercise what their names say.
		mid, _ := collect(trace.Stream, prog, cases[0].limit, 0)
		bound, _ := collect(trace.Stream, prog, cases[1].limit, 0)
		if !mid[len(mid)-1].Partial || bound[len(bound)-1].Partial {
			t.Errorf("%s: mid-trace tail partial=%v, boundary tail partial=%v",
				p.Name, mid[len(mid)-1].Partial, bound[len(bound)-1].Partial)
		}
	}
}

// straight returns n copies of addi r1, r1, 1 followed by tail.
func straight(n int, tail ...isa.Instruction) []isa.Instruction {
	insts := make([]isa.Instruction, n, n+len(tail))
	for i := range insts {
		insts[i] = isa.Instruction{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1}
	}
	return append(insts, tail...)
}

// TestStreamEndsLikeRunOracle: hand-built programs end a stream the way the
// program.Run-driven reference does. A halt as the 16th instruction of a
// trace completes it; a halt mid-trace, or straight-line code running off
// the end of the image (an out-of-image PC decodes as halt), delivers a
// partial trace that includes the halt; a budget just short of, at or just
// past a full trace cuts the stream there; fn returning false on the first
// event stops the run there.
func TestStreamEndsLikeRunOracle(t *testing.T) {
	halt := isa.Instruction{Op: isa.OpHalt}
	loop := straight(20, isa.Instruction{Op: isa.OpJ, Target: 0})
	cases := []struct {
		name      string
		insts     []isa.Instruction
		limit     int64
		stopAfter int
		want      []int  // event lengths
		partial   []bool // per event
	}{
		{"halt-16th", straight(isa.MaxTraceLen-1, halt), 0, 0, []int{16}, []bool{false}},
		{"halt-mid-trace", straight(20, halt), 0, 0, []int{16, 5}, []bool{false, true}},
		{"off-image", straight(20), 0, 0, []int{16, 5}, []bool{false, true}},
		{"off-image-at-16", straight(isa.MaxTraceLen), 0, 0, []int{16, 1}, []bool{false, true}},
		{"budget-15", loop, 15, 0, []int{15}, []bool{true}},
		{"budget-16", loop, 16, 0, []int{16}, []bool{false}},
		{"budget-17", loop, 17, 0, []int{16, 1}, []bool{false, true}},
		{"stop-first", loop, 1000, 1, []int{16}, []bool{false}},
	}
	for _, c := range cases {
		p := &program.Program{Name: c.name, Insts: c.insts}
		wantEv, wantN := collect(runStream, p, c.limit, c.stopAfter)
		gotEv, gotN := collect(trace.Stream, p, c.limit, c.stopAfter)
		if gotN != wantN || !reflect.DeepEqual(gotEv, wantEv) {
			t.Errorf("%s: executed %d, events %+v; reference %d, %+v", c.name, gotN, gotEv, wantN, wantEv)
			continue
		}
		if len(gotEv) != len(c.want) {
			t.Errorf("%s: %d events %+v, want lengths %v", c.name, len(gotEv), gotEv, c.want)
			continue
		}
		for i, ev := range gotEv {
			if ev.Len != c.want[i] || ev.Partial != c.partial[i] {
				t.Errorf("%s: event %d is %+v, want len %d partial %v", c.name, i, ev, c.want[i], c.partial[i])
			}
		}
	}
}
