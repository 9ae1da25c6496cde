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
// fused trace.Stream loop must reproduce it event for event.
func runStream(p *program.Program, limit int64, fn func(trace.Event) bool) int64 {
	tab := p.DecodeTable()
	var former trace.Former
	stop := false
	executed, _ := program.Run(p, limit, func(pc uint64, _ isa.Instruction, _ isa.Outcome) bool {
		ev, done := former.StepWord(pc, tab.Word(pc))
		if done && !fn(ev) {
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

// TestStreamMatchesRunOracle: for every suite benchmark, the fused Stream
// loop returns the same events and executed count as the program.Run-driven
// reference when the budget cuts a trace in half, ends exactly on a trace
// boundary, lies past the program's halt (or is unbounded), and when fn stops
// the run early.
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
