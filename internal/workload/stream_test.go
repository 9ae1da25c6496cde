package workload

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"itr/internal/trace"
)

// prefixProfile returns a small synthetic benchmark with its own program
// cache entry.
func prefixProfile(name string) Profile {
	return Profile{
		Name:         name,
		StaticTraces: 140,
		Components:   []Component{{40, 50}},
		Seed:         7,
	}
}

// freshEvents runs an uncached functional execution — the oracle every
// delivery path must match bit for bit.
func freshEvents(t *testing.T, p Profile, budget int64) []trace.Event {
	t.Helper()
	prog, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := EventsOf(prog, budget)
	return events
}

// sliced concatenates the blocks StreamEventSlices delivers, checking that
// every block but the last is full.
func sliced(t *testing.T, p Profile, budget int64) ([]trace.Event, StreamInfo) {
	t.Helper()
	var got []trace.Event
	short := false
	info, err := StreamEventSlices(p, budget, func(evs []trace.Event) {
		if short || len(evs) == 0 || len(evs) > blockEvents {
			t.Errorf("budget %d: block of %d events after a short block=%v", budget, len(evs), short)
		}
		short = len(evs) < blockEvents
		got = append(got, evs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, info
}

// TestCachedEventsServesPrefix: every budget yields exactly a fresh run's
// stream, and a smaller budget's whole events are a prefix of a larger
// budget's stream — including a cut landing exactly on an event boundary.
func TestCachedEventsServesPrefix(t *testing.T) {
	p := prefixProfile("prefix-serve")
	const big = 60_000
	full, err := CachedEvents(p, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("empty stream")
	}

	// An event-boundary budget and an arbitrary interior budget.
	boundary := int64(0)
	for _, ev := range full[:len(full)/2] {
		boundary += int64(ev.Len)
	}
	for _, budget := range []int64{boundary, 37_501, 1, big} {
		got, err := CachedEvents(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		want := freshEvents(t, p, budget)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: %d events differ from a fresh run's %d", budget, len(got), len(want))
		}
		whole := got
		if n := len(whole); n > 0 && whole[n-1].Partial {
			whole = whole[:n-1]
		}
		if !reflect.DeepEqual(whole, full[:len(whole)]) {
			t.Errorf("budget %d: whole events are not a prefix of the budget-%d stream", budget, big)
		}
		if budget == boundary && len(got) != len(full)/2 {
			t.Errorf("boundary budget: %d events, want %d whole ones", len(got), len(full)/2)
		}
	}
}

// TestCachedEventsStraddlePartialTail pins the hard case: a budget cutting
// through the middle of an event must end both delivery paths with the
// partial tail the trace former emits on a fresh budget-bound run.
func TestCachedEventsStraddlePartialTail(t *testing.T) {
	p := prefixProfile("prefix-straddle")
	full, err := CachedEvents(p, 50_000)
	if err != nil {
		t.Fatal(err)
	}

	// Find an event of at least two instructions and cut it one short.
	cum := int64(0)
	cut := int64(-1)
	for _, ev := range full {
		if ev.Len >= 2 {
			cut = cum + int64(ev.Len) - 1
			break
		}
		cum += int64(ev.Len)
	}
	if cut < 0 {
		t.Fatal("no multi-instruction event found")
	}

	want := freshEvents(t, p, cut)
	got, err := CachedEvents(p, cut)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := sliced(t, p, cut)
	for name, evs := range map[string][]trace.Event{"CachedEvents": got, "StreamEventSlices": streamed} {
		if !reflect.DeepEqual(evs, want) {
			t.Fatalf("%s cut %d: %d events, fresh %d; tails %+v vs %+v",
				name, cut, len(evs), len(want), evs[len(evs)-1], want[len(want)-1])
		}
	}
	if tail := got[len(got)-1]; !tail.Partial {
		t.Fatalf("tail not marked partial: %+v", tail)
	}
}

// TestCachedEventsBudgetSequence: requests carry no state between them, so
// an alternating sequence of larger and smaller budgets answers every
// request exactly as a fresh run would.
func TestCachedEventsBudgetSequence(t *testing.T) {
	p := prefixProfile("prefix-sequence")
	for _, budget := range []int64{40_000, 10_000, 40_000, 10_000, 55_000, 40_000} {
		got, err := CachedEvents(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		streamed, _ := sliced(t, p, budget)
		want := freshEvents(t, p, budget)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(streamed, want) {
			t.Errorf("budget %d: delivered stream differs from a fresh run", budget)
		}
	}
}

// TestStreamEventSlicesMatchesCachedEvents: at a budget spanning several
// blocks, the concatenated blocks equal EventsOf on the same program, with
// accurate StreamInfo accounting.
func TestStreamEventSlicesMatchesCachedEvents(t *testing.T) {
	p, err := ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 5 * blockEvents * 8
	got, info := sliced(t, p, budget)
	prog, err := CachedProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	want, executed := EventsOf(prog, budget)
	if len(want) < 3*blockEvents {
		t.Fatalf("%d events span fewer than three blocks", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concatenated blocks (%d events) differ from EventsOf (%d events)", len(got), len(want))
	}
	if info.Events != int64(len(want)) || info.Insts != executed {
		t.Errorf("info = %+v, want %d events over %d instructions", info, len(want), executed)
	}
}

// TestStreamEventSlicesConstantMemory: streaming allocates the same bytes at
// 1M and 4M instructions — one block buffer plus a fixed slack for the
// functional machine — so memory no longer grows with the budget. The
// program's one-time tables (its decode table and the trace records the
// first stream builds) are built before measuring.
func TestStreamEventSlicesConstantMemory(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CachedProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	prog.DecodeTable().Records()
	allocated := func(budget int64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		info, err := StreamEventSlices(p, budget, func([]trace.Event) {})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if info.Insts != budget {
			t.Fatalf("streamed %d instructions, want %d", info.Insts, budget)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const block = blockEvents * uint64(unsafe.Sizeof(trace.Event{}))
	const slack = 64 << 10
	for _, budget := range []int64{1_000_000, 4_000_000} {
		if got := allocated(budget); got > block+slack {
			t.Errorf("budget %d: allocated %d bytes, want at most %d (one %d-byte block + %d slack)",
				budget, got, block+slack, block, slack)
		}
	}
}
