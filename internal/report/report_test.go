package report

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"itr/internal/core"
	"itr/internal/fault"
	"itr/internal/trace"
	"itr/internal/workload"
)

// Small budget keeps report tests quick; exactness of Table 1 at full budget
// is covered in workload's tests.
const testBudget = 300_000

func small(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestPopularityFigureShape(t *testing.T) {
	series, err := PopularityFigure(small(t, "bzip", "art"), 100, 1000, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 10 {
			t.Fatalf("%s: %d points, want 10", s.Name, len(s.Points))
		}
		prev := -1.0
		for _, p := range s.Points {
			if p.Y < prev {
				t.Fatalf("%s: CDF not monotone", s.Name)
			}
			prev = p.Y
		}
		if prev > 100.0001 {
			t.Fatalf("%s: CDF exceeds 100%%", s.Name)
		}
	}
}

func TestDistanceFigureShape(t *testing.T) {
	series, err := DistanceFigure(small(t, "bzip"), testBudget)
	if err != nil {
		t.Fatal(err)
	}
	pts := series[0].Points
	if len(pts) != 20 {
		t.Fatalf("points = %d, want 20 distance buckets", len(pts))
	}
	if pts[0].X != 500 || pts[19].X != 10000 {
		t.Fatalf("bucket edges: %v ... %v", pts[0].X, pts[19].X)
	}
	// bzip is dominated by tight loops: most mass inside the first bucket.
	if pts[0].Y < 80 {
		t.Fatalf("bzip first bucket %.1f%%, expected tight proximity", pts[0].Y)
	}
}

func TestTable1SmallBudgetUndercountsGcc(t *testing.T) {
	rows, err := Table1(testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured <= 0 || r.Measured > r.Paper {
			t.Fatalf("%s: measured %d outside (0, %d]", r.Benchmark, r.Measured, r.Paper)
		}
	}
}

func TestCoverageSweepGrid(t *testing.T) {
	profiles := small(t, "vpr")
	cells, err := CoverageSweep(profiles, core.DesignSpace(), testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 {
		t.Fatalf("cells = %d, want 18", len(cells))
	}
	for _, c := range cells {
		if c.Result.DetectionLoss > c.Result.RecoveryLoss+1e-9 {
			t.Fatalf("%s %s: detection loss exceeds recovery loss", c.Benchmark, c.Config)
		}
	}
}

func TestCoverageTableRendering(t *testing.T) {
	cells, err := CoverageSweep(small(t, "vpr"), core.DesignSpace(), testBudget)
	if err != nil {
		t.Fatal(err)
	}
	SortCellsByBenchmark(cells)
	tab := CoverageTable(cells, "detection")
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d, want one per associativity", tab.NumRows())
	}
	out := tab.String()
	for _, want := range []string{"vpr", "dm", "2-way", "fa", "256 sigs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHeadlineCoverageSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("headline sweeps all 16 benchmarks")
	}
	h, err := HeadlineCoverage(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if h.AvgDetectionLoss <= 0 || h.AvgDetectionLoss > 10 {
		t.Fatalf("avg detection loss %.2f implausible", h.AvgDetectionLoss)
	}
	if h.MaxDetectionName != "vortex" {
		t.Errorf("max detection loss at %s, paper says vortex", h.MaxDetectionName)
	}
	if h.AvgRecoveryLoss < h.AvgDetectionLoss {
		t.Error("recovery loss must be at least detection loss")
	}
}

func TestFigure8SmallCampaign(t *testing.T) {
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = 5
	cfg.Experiment.WindowCycles = 30_000
	rows, err := Figure8(small(t, "art"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Result.Total != 5 {
		t.Fatalf("rows: %+v", rows)
	}
	out := Figure8Table(rows).String()
	if !strings.Contains(out, "art") || !strings.Contains(out, "Avg") {
		t.Fatalf("figure 8 table:\n%s", out)
	}
	if !strings.Contains(out, string(fault.ITRMask)) {
		t.Fatalf("missing category header:\n%s", out)
	}
}

func TestFigure9ShapeAndScaling(t *testing.T) {
	rows, err := Figure9(small(t, "bzip", "swim"), testBudget, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's central energy claim, per benchmark.
		if r.ITRSinglePort >= r.ICacheRedFetch {
			t.Fatalf("%s: ITR %.2f mJ not below redundant fetch %.2f mJ",
				r.Benchmark, r.ITRSinglePort, r.ICacheRedFetch)
		}
		if r.ITRDualPort <= r.ITRSinglePort {
			t.Fatalf("%s: dual port should cost more", r.Benchmark)
		}
		// At 200M instructions the redundant-fetch bar sits in the paper's
		// tens-of-mJ range.
		if r.ICacheRedFetch < 30 || r.ICacheRedFetch > 150 {
			t.Fatalf("%s: redundant fetch %.1f mJ outside the paper's range", r.Benchmark, r.ICacheRedFetch)
		}
	}
	// Unscaled rows are much smaller.
	raw, err := Figure9(small(t, "bzip"), testBudget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0].ICacheRedFetch >= rows[0].ICacheRedFetch {
		t.Fatal("unscaled energy should be far below 200M-scaled energy")
	}
	if tab := Figure9Table(rows); !strings.Contains(tab.String(), "bzip") {
		t.Fatal("figure 9 table render broken")
	}
}

func TestSortCellsByBenchmark(t *testing.T) {
	cells := []CoverageCell{
		{Benchmark: "vpr", Config: core.Config{Entries: 256, Assoc: 0}},
		{Benchmark: "bzip", Config: core.Config{Entries: 512, Assoc: 2}},
		{Benchmark: "bzip", Config: core.Config{Entries: 256, Assoc: 1}},
	}
	SortCellsByBenchmark(cells)
	if cells[0].Benchmark != "bzip" || cells[0].Config.Assoc != 1 {
		t.Fatalf("sort order: %+v", cells)
	}
	if cells[2].Benchmark != "vpr" {
		t.Fatalf("fa must sort last: %+v", cells)
	}
}

// TestCharacterizationMemoSharedAcrossStages runs the five characterization
// stages of `itr char` (Figures 1-4 and Table 1) on one engine: each
// benchmark is streamed once in total, every stage is served the same
// *trace.Characterizer the first one built, and that characterizer equals a
// fresh characterization of the benchmark.
func TestCharacterizationMemoSharedAcrossStages(t *testing.T) {
	const budget = 50_000
	probe := &Probe{}
	eng := &Engine{Workers: 2, Probe: probe}
	memo := func() map[charKey]*trace.Characterizer {
		out := make(map[charKey]*trace.Characterizer)
		for k, m := range eng.chars {
			out[k] = m.c
		}
		return out
	}

	if _, err := eng.PopularityFigure(workload.IntSuite(), 100, 1000, budget); err != nil {
		t.Fatal(err)
	}
	first := memo()
	if len(first) != len(workload.IntSuite()) {
		t.Fatalf("figure 1 memoized %d characterizations, want %d", len(first), len(workload.IntSuite()))
	}
	stages := []func() error{
		func() error { _, err := eng.PopularityFigure(workload.FPSuite(), 50, 500, budget); return err },
		func() error { _, err := eng.DistanceFigure(workload.IntSuite(), budget); return err },
		func() error { _, err := eng.DistanceFigure(workload.FPSuite(), budget); return err },
		func() error { _, err := eng.Table1(budget); return err },
	}
	for _, stage := range stages {
		if err := stage(); err != nil {
			t.Fatal(err)
		}
	}
	suite := workload.Suite()
	if got := probe.StreamsGenerated.Load(); got != int64(len(suite)) {
		t.Errorf("five stages generated %d streams, want one per benchmark (%d)", got, len(suite))
	}
	all := memo()
	if len(all) != len(suite) {
		t.Errorf("memo holds %d characterizations, want %d", len(all), len(suite))
	}
	for k, c := range first {
		if all[k] != c {
			t.Errorf("%s: a later stage replaced figure 1's characterizer", k.name)
		}
	}
	for _, p := range suite {
		c, err := eng.Characterization(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		if c != all[charKey{p.Name, p.ScaledBudget(budget)}] {
			t.Errorf("%s: Characterization returned a characterizer outside the memo", p.Name)
		}
		prog, err := workload.CachedProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh := trace.Characterize(prog, p.ScaledBudget(budget))
		if !reflect.DeepEqual(c, fresh) {
			t.Errorf("%s: memoized characterization differs from a fresh one", p.Name)
		}
	}
	if got := probe.StreamsGenerated.Load(); got != int64(len(suite)) {
		t.Errorf("repeat requests generated %d more streams", got-int64(len(suite)))
	}
}

// TestCharacterizationMemoConcurrent: concurrent requests for one benchmark
// and budget share a single stream pass and receive the same characterizer.
func TestCharacterizationMemoConcurrent(t *testing.T) {
	p := small(t, "vpr")[0]
	probe := &Probe{}
	eng := &Engine{Probe: probe}
	const callers = 8
	got := make([]*trace.Characterizer, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := eng.Characterization(p, 20_000)
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("caller %d got characterizer %p, caller 0 got %p", i, c, got[0])
		}
	}
	if n := probe.StreamsGenerated.Load(); n != 1 {
		t.Errorf("%d concurrent callers generated %d streams, want 1", callers, n)
	}
}
