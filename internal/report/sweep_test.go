package report

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"itr/internal/core"
	"itr/internal/energy"
	"itr/internal/trace"
	"itr/internal/workload"
)

// sweepPerCell is the reference sweep the single-pass engine must match:
// each benchmark's event stream materialized whole, then one standalone
// coverage simulator per (benchmark, configuration) cell replaying all of
// it. Cells come back in CoverageSweepWarm's order (suite order, then config
// order).
func sweepPerCell(e *Engine, profiles []workload.Profile, configs []core.Config, budget, warmupInsts int64) ([]CoverageCell, error) {
	cells := make([]CoverageCell, len(profiles)*len(configs))
	err := e.forEach(len(profiles), func(pi int) error {
		p := profiles[pi]
		events, err := workload.CachedEvents(p, p.ScaledBudget(budget)+warmupInsts)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		for ci, cfg := range configs {
			sim, err := core.NewCoverageSim(cfg)
			if err != nil {
				return fmt.Errorf("%s %s: %w", p.Name, cfg, err)
			}
			replayWarm(sim, events, warmupInsts)
			cells[pi*len(configs)+ci] = CoverageCell{Benchmark: p.Name, Config: cfg, Result: sim.Result()}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// replayWarm drives one coverage simulator over an event stream, delegating
// the warm-up boundary rule to the same core.WarmupLatch that governs
// SimBank fan-out — the two replay paths cannot diverge.
func replayWarm(sim *core.CoverageSim, events []trace.Event, warmupInsts int64) {
	latch := core.NewWarmupLatch(warmupInsts)
	for _, ev := range events {
		if latch.Admit(ev.Len) {
			sim.Warm(ev)
		} else {
			sim.Access(ev)
		}
	}
}

// TestSweepSinglePassMatchesPerCell is the sweep engine's bit-identity
// property: the single-pass bank path returns exactly the cells the per-cell
// reference path computes — same order, same values — over a randomized
// configuration grid and warm-up budgets.
func TestSweepSinglePassMatchesPerCell(t *testing.T) {
	profiles := small(t, "vpr", "wupwise")
	rng := rand.New(rand.NewSource(23))
	space := core.DesignSpace()
	for round := 0; round < 4; round++ {
		configs := make([]core.Config, 1+rng.Intn(len(space)))
		for i := range configs {
			configs[i] = space[rng.Intn(len(space))]
			if rng.Intn(4) == 0 {
				configs[i].MissFallback = true
			}
		}
		warmup := int64(rng.Intn(2)) * int64(rng.Intn(20_000))

		eng := &Engine{Workers: 2}
		single, err := eng.CoverageSweepWarm(profiles, configs, testBudget, warmup)
		if err != nil {
			t.Fatal(err)
		}
		perCell, err := sweepPerCell(eng, profiles, configs, testBudget, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, perCell) {
			t.Fatalf("round %d (%d configs, warmup %d): single-pass cells diverge from per-cell reference",
				round, len(configs), warmup)
		}
	}
}

// TestSweepRenderingIdenticalAcrossPaths renders Figures 6/7-shaped tables
// from three sweeps — serial single-pass, full-width single-pass, and the
// per-cell reference — and requires byte-identical output.
func TestSweepRenderingIdenticalAcrossPaths(t *testing.T) {
	profiles := small(t, "bzip", "art")
	rng := rand.New(rand.NewSource(5))
	space := core.DesignSpace()
	configs := make([]core.Config, 8)
	for i := range configs {
		configs[i] = space[rng.Intn(len(space))]
	}

	render := func(cells []CoverageCell) string {
		SortCellsByBenchmark(cells)
		return CoverageTable(cells, "detection").String() + CoverageTable(cells, "recovery").String()
	}

	serial := &Engine{Workers: 1}
	wide := &Engine{Workers: 8}
	a, err := serial.CoverageSweepWarm(profiles, configs, testBudget, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.CoverageSweepWarm(profiles, configs, testBudget, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sweepPerCell(wide, profiles, configs, testBudget, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb, rc := render(a), render(b), render(c)
	if ra != rb {
		t.Errorf("serial vs full-width single-pass renderings differ:\n%s\nvs\n%s", ra, rb)
	}
	if ra != rc {
		t.Errorf("single-pass vs per-cell renderings differ:\n%s\nvs\n%s", ra, rc)
	}
}

// TestFigure9MatchesDirectSimulation verifies Figure 9's shared-sweep rework
// against the pre-rework computation: a private replay per benchmark with its
// own instruction count and scaling.
func TestFigure9MatchesDirectSimulation(t *testing.T) {
	profiles := small(t, "vpr", "swim")
	const scaleInsts = 200_000_000
	rows, err := Figure9(profiles, testBudget, scaleInsts)
	if err != nil {
		t.Fatal(err)
	}

	singleNJ, _ := energy.AccessEnergyNJ(energy.ITRCacheSinglePort)
	dualNJ, _ := energy.AccessEnergyNJ(energy.ITRCacheDualPort)
	iNJ, _ := energy.AccessEnergyNJ(energy.Power4ICache)
	for i, p := range profiles {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		events, executed := workload.EventsOf(prog, p.ScaledBudget(testBudget))
		sim, err := core.NewCoverageSim(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			sim.Access(ev)
		}
		res := sim.Result()
		scale := 1.0
		if executed > 0 {
			scale = float64(scaleInsts) / float64(executed)
		}
		want := Figure9Row{
			Benchmark:      p.Name,
			ITRSinglePort:  energy.EnergyMJ(int64(float64(res.Reads+res.Writes)*scale), singleNJ),
			ITRDualPort:    energy.EnergyMJ(int64(float64(res.Reads+res.Writes)*scale), dualNJ),
			ICacheRedFetch: energy.EnergyMJ(int64(float64(energy.RedundantFetchAccesses(executed))*scale), iNJ),
		}
		if rows[i] != want {
			t.Errorf("%s: Figure9 row %+v diverges from direct simulation %+v", p.Name, rows[i], want)
		}
	}
}

// TestSweepProbeTelemetry verifies the probe accounting: every sweep
// generates each benchmark's stream exactly once (streams are not memoized,
// so a repeat sweep generates them again), every traversal counts its events,
// and each (benchmark, config) cell is recorded.
func TestSweepProbeTelemetry(t *testing.T) {
	profiles := small(t, "gap", "mgrid")
	configs := core.DesignSpace()[:4]
	probe := &Probe{}
	eng := &Engine{Workers: 2, Probe: probe}
	cells, err := eng.CoverageSweepWarm(profiles, configs, testBudget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := probe.CellsCompleted.Load(), int64(len(cells)); got != want {
		t.Errorf("cells completed %d, want %d", got, want)
	}
	events := probe.EventsReplayed.Load()
	if events <= 0 {
		t.Error("no events accounted")
	}
	if got := probe.StreamsGenerated.Load(); got != int64(len(profiles)) {
		t.Errorf("%d generations for %d benchmarks", got, len(profiles))
	}

	// A second sweep at the same budget generates and traverses each stream
	// once more.
	if _, err := eng.CoverageSweepWarm(profiles, configs, testBudget, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := probe.StreamsGenerated.Load(), int64(2*len(profiles)); got != want {
		t.Errorf("%d generations after the repeat sweep, want %d", got, want)
	}
	if got := probe.EventsReplayed.Load(); got != 2*events {
		t.Errorf("events replayed %d after the repeat sweep, want %d", got, 2*events)
	}
	if got, want := probe.CellsCompleted.Load(), int64(2*len(cells)); got != want {
		t.Errorf("cells completed %d after second sweep, want %d", got, want)
	}
}
