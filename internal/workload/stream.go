package workload

import (
	"itr/internal/par"
	"itr/internal/program"
	"itr/internal/trace"
)

// DefaultBudget is the default dynamic-instruction budget per benchmark. The
// paper simulates 200M instructions after a 900M skip; coverage ratios for
// these loop-structured workloads converge far below that, and every tool
// accepts a flag to raise the budget to paper scale.
const DefaultBudget = 4_000_000

// EventsOf streams an already-built program, returning its dynamic
// trace-event stream for the given instruction budget and the number of
// dynamic instructions executed.
func EventsOf(prog *program.Program, budget int64) ([]trace.Event, int64) {
	events := make([]trace.Event, 0, budget/8)
	executed := trace.Stream(prog, budget, func(ev trace.Event) bool {
		events = append(events, ev)
		return true
	})
	return events, executed
}

// programs memoizes each benchmark's built program, keyed by name:
// concurrent workers building different benchmarks proceed in parallel,
// while workers asking for the same one share its first build.
//
// Event streams are deliberately not memoized: a held stream costs memory
// in proportion to its budget, while StreamEventSlices regenerates one from
// the program in constant memory.
var programs par.Memo[string, *program.Program]

// CachedProgram returns a memoized build of p. Safe for concurrent use; the
// returned Program is immutable after construction and may be shared freely.
func CachedProgram(p Profile) (*program.Program, error) {
	return programs.Do(p.Name, func() (*program.Program, error) { return Build(p) })
}

// CachedEvents returns p's trace-event stream at the given budget: a fresh
// EventsOf run on the memoized program, so every call executes the program
// again and returns a new slice the caller owns. Safe for concurrent use.
// Consumers that only traverse the stream should use StreamEventSlices,
// whose memory does not grow with the budget.
func CachedEvents(p Profile, budget int64) ([]trace.Event, error) {
	prog, err := CachedProgram(p)
	if err != nil {
		return nil, err
	}
	events, _ := EventsOf(prog, budget)
	return events, nil
}

// blockEvents is how many trace events StreamEventSlices hands its consumer
// per call: large enough that the per-block call vanishes against the work
// inside it, small enough (128 KiB) to stay cache-resident.
const blockEvents = 4096

// StreamInfo summarizes one StreamEventSlices call for sweep telemetry.
type StreamInfo struct {
	// Events and Insts count the trace events delivered to fn and the
	// dynamic instructions they cover.
	Events int64
	Insts  int64
}

// StreamEventSlices functionally executes benchmark p for the given budget
// and delivers its trace-event stream to fn in order, in blocks of
// blockEvents events (the last block may be shorter). The concatenated
// blocks equal EventsOf(prog, budget). Each call generates the stream anew
// and reuses one block buffer throughout, so memory stays flat however large
// the budget: fn must not retain or mutate a block after it returns.
func StreamEventSlices(p Profile, budget int64, fn func([]trace.Event)) (StreamInfo, error) {
	prog, err := CachedProgram(p)
	if err != nil {
		return StreamInfo{}, err
	}
	var info StreamInfo
	block := make([]trace.Event, 0, blockEvents)
	info.Insts = trace.Stream(prog, budget, func(ev trace.Event) bool {
		block = append(block, ev)
		if len(block) == blockEvents {
			fn(block)
			info.Events += blockEvents
			block = block[:0]
		}
		return true
	})
	if len(block) > 0 {
		fn(block)
		info.Events += int64(len(block))
	}
	return info, nil
}
