package report

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"itr/internal/core"
	"itr/internal/trace"
)

// newSim builds a coverage simulator for tests, failing on config error.
func newSim(t *testing.T) *core.CoverageSim {
	t.Helper()
	sim, err := core.NewCoverageSim(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestReplayWarmBoundary pins the warm-up attribution rule: an event counts
// as warm-up only when it fits entirely within the warmupInsts prefix; the
// first straddling event and everything after it is measured.
func TestReplayWarmBoundary(t *testing.T) {
	events := []trace.Event{
		{StartPC: 0, Len: 10, Sig: 1},
		{StartPC: 100, Len: 10, Sig: 2},
		{StartPC: 200, Len: 10, Sig: 3},
	}
	cases := []struct {
		name        string
		warmup      int64
		wantEvents  int64
		wantMeasure int64
	}{
		{"no warmup", 0, 3, 30},
		{"warmup below first event straddles", 5, 3, 30},
		{"boundary mid second event", 15, 2, 20},
		{"boundary exactly after second event", 20, 1, 10},
		{"warmup swallows all", 30, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := newSim(t)
			replayWarm(sim, events, tc.warmup)
			res := sim.Result()
			if res.TraceEvents != tc.wantEvents {
				t.Errorf("warmup %d: measured %d events, want %d", tc.warmup, res.TraceEvents, tc.wantEvents)
			}
			if res.TotalInsts != tc.wantMeasure {
				t.Errorf("warmup %d: measured %d insts, want %d", tc.warmup, res.TotalInsts, tc.wantMeasure)
			}
		})
	}
}

// TestReplayWarmLatch verifies a short event after the boundary is crossed
// stays measured even though it would still fit under warmupInsts.
func TestReplayWarmLatch(t *testing.T) {
	events := []trace.Event{
		{StartPC: 0, Len: 10, Sig: 1},
		{StartPC: 100, Len: 10, Sig: 2}, // straddles warmup=15: measured
		{StartPC: 200, Len: 3, Sig: 3},  // 10+3 <= 15, but latch keeps it measured
	}
	sim := newSim(t)
	replayWarm(sim, events, 15)
	res := sim.Result()
	if res.TraceEvents != 2 || res.TotalInsts != 13 {
		t.Errorf("got %d events / %d insts measured, want 2 / 13", res.TraceEvents, res.TotalInsts)
	}
}

// TestEngineOnItem verifies the per-item observer fires once per unit of
// work with the benchmark label, at serial and parallel widths.
func TestEngineOnItem(t *testing.T) {
	profiles := small(t, "bzip", "art")
	for _, w := range []int{1, 4} {
		var mu sync.Mutex
		counts := map[string]int{}
		eng := &Engine{Workers: w, OnItem: func(label string, _ time.Duration) {
			mu.Lock()
			counts[label]++
			mu.Unlock()
		}}
		if _, err := eng.PopularityFigure(profiles, 100, 500, testBudget); err != nil {
			t.Fatal(err)
		}
		if counts["bzip"] != 1 || counts["art"] != 1 {
			t.Fatalf("workers=%d: item counts %v, want one per benchmark", w, counts)
		}
	}
}

// TestSweepDeterministicAcrossWidths is the parallel-engine contract: the
// sweep and the per-benchmark figures are bit-identical at any pool width.
func TestSweepDeterministicAcrossWidths(t *testing.T) {
	profiles := small(t, "bzip", "art")
	configs := core.DesignSpace()[:6]

	serial := &Engine{Workers: 1}
	serialCells, err := serial.CoverageSweepWarm(profiles, configs, testBudget, 1000)
	if err != nil {
		t.Fatal(err)
	}
	serialPop, err := serial.PopularityFigure(profiles, 100, 500, testBudget)
	if err != nil {
		t.Fatal(err)
	}

	par := &Engine{Workers: 4}
	parCells, err := par.CoverageSweepWarm(profiles, configs, testBudget, 1000)
	if err != nil {
		t.Fatal(err)
	}
	parPop, err := par.PopularityFigure(profiles, 100, 500, testBudget)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serialCells, parCells) {
		t.Error("sweep cells differ between workers=1 and workers=4")
	}
	if !reflect.DeepEqual(serialPop, parPop) {
		t.Error("popularity series differ between workers=1 and workers=4")
	}
}
