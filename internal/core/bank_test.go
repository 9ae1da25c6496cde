package core

import (
	"math/rand"
	"reflect"
	"testing"

	"itr/internal/trace"
)

// TestWarmupLatchBoundary pins the shared warm-up attribution rule at the
// latch level: whole events fitting in the budget are admitted; the first
// straddler closes the latch for good.
func TestWarmupLatchBoundary(t *testing.T) {
	cases := []struct {
		name   string
		budget int64
		lens   []int
		want   []bool
	}{
		{"zero budget admits nothing", 0, []int{1, 5}, []bool{false, false}},
		{"negative budget admits nothing", -3, []int{1}, []bool{false}},
		{"exact fit then closed", 10, []int{4, 6, 1}, []bool{true, true, false}},
		{"straddler latches", 10, []int{8, 5, 1}, []bool{true, false, false}},
		{"short after straddler stays measured", 15, []int{10, 10, 3}, []bool{true, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			latch := NewWarmupLatch(tc.budget)
			for i, n := range tc.lens {
				if got := latch.Admit(n); got != tc.want[i] {
					t.Errorf("event %d (len %d): Admit = %v, want %v", i, n, got, tc.want[i])
				}
			}
		})
	}
}

// randomStream synthesizes a trace-event stream with heavy PC reuse (so hits,
// installs and evictions all occur) and a consistent signature per start PC.
func randomStream(rng *rand.Rand, n, pcs int) []trace.Event {
	sigs := make(map[uint64]uint64)
	events := make([]trace.Event, n)
	for i := range events {
		pc := uint64(rng.Intn(pcs)) * 32
		sig, ok := sigs[pc]
		if !ok {
			sig = rng.Uint64()
			sigs[pc] = sig
		}
		events[i] = trace.Event{StartPC: pc, Len: 1 + rng.Intn(16), Sig: sig}
	}
	return events
}

// raggedSlices cuts events into consecutive slices whose lengths mix single
// events, lengths either side of bankBlockEvents, random sizes up to three
// windows and the odd empty slice, with one cut forced at event index at, so
// slice edges land on and around the warm-up boundary.
func raggedSlices(rng *rand.Rand, events []trace.Event, at int) [][]trace.Event {
	sizes := []int{0, 1, 2, bankBlockEvents - 1, bankBlockEvents, bankBlockEvents + 1}
	var out [][]trace.Event
	for start := 0; start < len(events); {
		n := sizes[rng.Intn(len(sizes))]
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(3*bankBlockEvents)
		}
		end := start + n
		if start < at && end > at {
			end = at
		}
		if end > len(events) {
			end = len(events)
		}
		out = append(out, events[start:end])
		start = end
	}
	return out
}

// TestSimBankMatchesSingleSims is the bank's central property: feeding one
// event stream through a SimBank, in ragged slices, produces for every
// member a Result identical to a standalone CoverageSim replaying the same
// stream event by event through its own WarmupLatch — across random
// streams, slicings, config subsets and warm-up budgets.
func TestSimBankMatchesSingleSims(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	space := DesignSpace()
	for round := 0; round < 12; round++ {
		events := randomStream(rng, 200+rng.Intn(3*bankBlockEvents), 50+rng.Intn(1500))
		configs := make([]Config, 2+rng.Intn(len(space)-1))
		for i := range configs {
			configs[i] = space[rng.Intn(len(space))]
			if rng.Intn(3) == 0 {
				configs[i].MissFallback = true
			}
		}
		warmup := int64(0)
		if rng.Intn(3) != 0 {
			warmup = int64(rng.Intn(25_000))
		}
		// Index of the first measured event, then a cut on, just before
		// or just after it.
		boundary := 0
		for latch := NewWarmupLatch(warmup); boundary < len(events) && latch.Admit(events[boundary].Len); {
			boundary++
		}

		bank, err := NewSimBank(configs, warmup)
		if err != nil {
			t.Fatal(err)
		}
		fed := 0
		for _, slice := range raggedSlices(rng, events, boundary+rng.Intn(3)-1) {
			bank.FeedBlock(slice)
			fed += len(slice)
		}
		if fed != len(events) {
			t.Fatalf("round %d: slices cover %d of %d events", round, fed, len(events))
		}

		for ci, cfg := range configs {
			sim, err := NewCoverageSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			latch := NewWarmupLatch(warmup)
			for _, ev := range events {
				if latch.Admit(ev.Len) {
					sim.Warm(ev)
				} else {
					sim.Access(ev)
				}
			}
			if got, want := bank.Result(ci), sim.Result(); !reflect.DeepEqual(got, want) {
				t.Errorf("round %d, config %s (warmup %d): bank result diverges from single sim\n bank: %+v\n sim:  %+v",
					round, cfg, warmup, got, want)
			}
		}

		all := bank.Results()
		if len(all) != bank.Len() || bank.Len() != len(configs) {
			t.Fatalf("Results/Len shape: %d results, Len %d, %d configs", len(all), bank.Len(), len(configs))
		}
		for i := range all {
			if !reflect.DeepEqual(all[i], bank.Result(i)) {
				t.Fatalf("Results()[%d] != Result(%d)", i, i)
			}
		}
	}
}

// TestNewSimBankConfigError verifies an invalid member configuration fails
// construction with the config identified in the error.
func TestNewSimBankConfigError(t *testing.T) {
	configs := []Config{DefaultConfig(), {Entries: 300, Assoc: 2}}
	if _, err := NewSimBank(configs, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
}
