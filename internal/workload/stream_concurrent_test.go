package workload

import (
	"reflect"
	"sync"
	"testing"

	"itr/internal/trace"
)

// TestCachedConcurrent hammers the program cache and stream generation from
// many goroutines — several benchmarks, each requested by several callers —
// the access pattern of the parallel sweep engine. Run under -race (CI
// does): it must be free of data races, every caller must observe the same
// memoized program and an identical event stream, and different benchmarks
// must not corrupt each other.
func TestCachedConcurrent(t *testing.T) {
	names := []string{"bzip", "art", "gap", "equake"}
	const callers = 8
	const budget = 50_000

	type got struct {
		prog   interface{}
		events []trace.Event
	}
	results := make([][]got, len(names))
	for i := range results {
		results[i] = make([]got, callers)
	}

	var wg sync.WaitGroup
	for ni, name := range names {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(ni, c int, p Profile) {
				defer wg.Done()
				prog, err := CachedProgram(p)
				if err != nil {
					t.Errorf("%s: CachedProgram: %v", p.Name, err)
					return
				}
				var events []trace.Event
				if c%2 == 0 {
					events, err = CachedEvents(p, budget)
				} else {
					_, err = StreamEventSlices(p, budget, func(evs []trace.Event) {
						events = append(events, evs...)
					})
				}
				if err != nil {
					t.Errorf("%s: %v", p.Name, err)
					return
				}
				results[ni][c] = got{prog: prog, events: events}
			}(ni, c, p)
		}
	}
	wg.Wait()

	for ni, name := range names {
		first := results[ni][0]
		if first.prog == nil {
			t.Fatalf("%s: no result", name)
		}
		if len(first.events) == 0 {
			t.Errorf("%s: empty event stream", name)
		}
		for c, r := range results[ni] {
			if r.prog != first.prog {
				t.Errorf("%s: caller %d observed a different program instance", name, c)
			}
			if !reflect.DeepEqual(r.events, first.events) {
				t.Errorf("%s: caller %d observed %d events, caller 0 observed %d", name, c, len(r.events), len(first.events))
			}
		}
	}
}
