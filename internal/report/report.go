// Package report regenerates every table and figure of the paper's
// evaluation from the simulator packages. The cmd tools print these reports;
// the root-level benchmarks invoke the same entry points so each published
// result has exactly one implementation.
//
// Index (see DESIGN.md for the full experiment table):
//
//	Figure1/Figure2   dynamic instructions vs top-k static traces
//	Figure3/Figure4   dynamic instructions vs trace repeat distance
//	Table1            static trace counts per benchmark
//	Table2            the decode-signal vector (ISA spec)
//	Figure6/Figure7   coverage-loss design-space sweep
//	Figure8           fault-injection outcome breakdown
//	Figure9           ITR cache vs redundant I-cache fetch energy
//	AreaComparison    Section 5 die-area argument
//	Headline          Section 3's average/max coverage-loss summary
package report

import (
	"fmt"
	"sort"

	"itr/internal/core"
	"itr/internal/energy"
	"itr/internal/fault"
	"itr/internal/par"
	"itr/internal/stats"
	"itr/internal/trace"
	"itr/internal/workload"
)

// Characterization returns one benchmark's trace characterization at the
// given base budget (scaled per profile). The engine memoizes the result per
// (benchmark, scaled budget): the first request streams the benchmark once,
// and every later one — the other characterization figures and Table 1 —
// shares the same read-only *trace.Characterizer instead of executing the
// program again. A characterizer is small (one entry per static trace), so
// it, not the event stream, is what gets reused.
func (e *Engine) Characterization(p workload.Profile, budget int64) (*trace.Characterizer, error) {
	budget = p.ScaledBudget(budget)
	return e.chars.Do(charKey{p.Name, budget}, func() (*trace.Characterizer, error) {
		c := trace.NewCharacterizer()
		info, err := workload.StreamEventSlices(p, budget, func(evs []trace.Event) {
			for _, ev := range evs {
				c.Add(ev)
			}
		})
		if err != nil {
			return nil, err
		}
		e.observe(info)
		return c, nil
	})
}

// PopularityFigure produces Figure 1 (SPECint, step 100 up to 1000) or
// Figure 2 (SPECfp, step 50 up to 500): one series per benchmark of the
// cumulative percentage of dynamic instructions contributed by the top-k
// static traces.
func (e *Engine) PopularityFigure(profiles []workload.Profile, step, limit int, budget int64) ([]stats.Series, error) {
	series := make([]stats.Series, len(profiles))
	err := par.Each(e.Workers, len(profiles), func(_, i int) error {
		p := profiles[i]
		return e.item(p.Name, func() error {
			c, err := e.Characterization(p, budget)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			series[i] = stats.Series{Name: p.Name, Points: c.PopularityCDF(step, limit)}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// DistanceFigure produces Figure 3 (SPECint) or Figure 4 (SPECfp): one
// series per benchmark of the cumulative percentage of dynamic instructions
// contributed by trace repetitions within each 500-instruction distance
// bucket, up to 10000.
func (e *Engine) DistanceFigure(profiles []workload.Profile, budget int64) ([]stats.Series, error) {
	series := make([]stats.Series, len(profiles))
	err := par.Each(e.Workers, len(profiles), func(_, i int) error {
		p := profiles[i]
		return e.item(p.Name, func() error {
			c, err := e.Characterization(p, budget)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			pts := make([]stats.Point, 0, 20)
			for _, b := range c.DistanceBuckets(500, 10000) {
				pts = append(pts, stats.Point{X: float64(b.UpperEdge), Y: b.CumulativePct})
			}
			series[i] = stats.Series{Name: p.Name, Points: pts}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// Table1Row is one row of the paper's Table 1 reproduction.
type Table1Row struct {
	Benchmark string `json:"benchmark"`
	Suite     string `json:"suite"`    // "SPECint" or "SPECfp"
	Measured  int    `json:"measured"` // static traces observed in the simulated window
	Paper     int    `json:"paper"`    // the paper's Table 1 value
}

// Table1 measures static trace counts for every benchmark.
func (e *Engine) Table1(budget int64) ([]Table1Row, error) {
	suite := workload.Suite()
	rows := make([]Table1Row, len(suite))
	err := par.Each(e.Workers, len(suite), func(_, i int) error {
		p := suite[i]
		return e.item(p.Name, func() error {
			c, err := e.Characterization(p, budget)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			suite := "SPECint"
			if p.FP {
				suite = "SPECfp"
			}
			rows[i] = Table1Row{
				Benchmark: p.Name,
				Suite:     suite,
				Measured:  c.StaticTraces(),
				Paper:     p.StaticTraces,
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// CoverageCell is one (benchmark, configuration) point of Figures 6-7.
type CoverageCell struct {
	Benchmark string
	Config    core.Config
	Result    core.Result
}

// CoverageSweepWarm replays each benchmark's trace stream against every
// cache configuration (the paper's Section 3 design-space exploration). The
// first warmupInsts instructions of each stream prime the ITR cache without
// being charged, mirroring the paper's 900M-instruction skip before its
// 200M-instruction measurement window; pass 0 to measure the whole stream.
//
// Each benchmark is one unit of work on the report worker pool: a
// core.SimBank holding every configuration is driven in lockstep from a
// single traversal of the benchmark's event stream, generated block by
// block as the program executes (workload.StreamEventSlices), instead of one
// traversal per configuration. Memory therefore stays flat as the budget
// grows. Results are slotted by index, so the returned cell order (suite
// order, then config order) and every value are bit-identical to one
// coverage simulator per cell replaying the whole stream, at any pool width.
func (e *Engine) CoverageSweepWarm(profiles []workload.Profile, configs []core.Config, budget, warmupInsts int64) ([]CoverageCell, error) {
	cells := make([]CoverageCell, len(profiles)*len(configs))
	err := par.Each(e.Workers, len(profiles), func(_, pi int) error {
		p := profiles[pi]
		return e.item(p.Name, func() error {
			bank, err := core.NewSimBank(configs, warmupInsts)
			if err != nil {
				return fmt.Errorf("%s %w", p.Name, err)
			}
			info, err := workload.StreamEventSlices(p, p.ScaledBudget(budget)+warmupInsts, bank.FeedBlock)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			e.observe(info)
			for ci, cfg := range configs {
				cells[pi*len(configs)+ci] = CoverageCell{Benchmark: p.Name, Config: cfg, Result: bank.Result(ci)}
			}
			e.cells(len(configs))
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// CoverageTable renders a Figures 6/7-shaped table: one row per
// (benchmark, associativity), one column per cache size, for the chosen
// metric ("detection" or "recovery").
func CoverageTable(cells []CoverageCell, metric string) *stats.Table {
	value := func(r core.Result) float64 {
		if metric == "recovery" {
			return r.RecoveryLoss
		}
		return r.DetectionLoss
	}
	sizes := []int{256, 512, 1024}
	t := stats.NewTable("benchmark", "assoc", "256 sigs (%)", "512 sigs (%)", "1024 sigs (%)")
	type key struct {
		bench string
		assoc int
	}
	grid := make(map[key]map[int]float64)
	var benches []string
	seen := map[string]bool{}
	for _, c := range cells {
		k := key{c.Benchmark, c.Config.Assoc}
		if grid[k] == nil {
			grid[k] = make(map[int]float64)
		}
		grid[k][c.Config.Entries] = value(c.Result)
		if !seen[c.Benchmark] {
			seen[c.Benchmark] = true
			benches = append(benches, c.Benchmark)
		}
	}
	assocs := []int{1, 2, 4, 8, 16, 0}
	names := map[int]string{1: "dm", 2: "2-way", 4: "4-way", 8: "8-way", 16: "16-way", 0: "fa"}
	for _, b := range benches {
		for _, a := range assocs {
			vals, ok := grid[key{b, a}]
			if !ok {
				continue
			}
			t.AddRow(b, names[a], vals[sizes[0]], vals[sizes[1]], vals[sizes[2]])
		}
	}
	return t
}

// Headline summarizes Section 3's quoted numbers for the 2-way/1024
// configuration: "the average loss in fault detection coverage is 1.3% with
// a maximum loss of 8.2% for vortex; recovery 2.5% average and 15% maximum".
type Headline struct {
	AvgDetectionLoss float64 `json:"avgDetectionLossPct"`
	MaxDetectionLoss float64 `json:"maxDetectionLossPct"`
	MaxDetectionName string  `json:"maxDetectionBenchmark"`
	AvgRecoveryLoss  float64 `json:"avgRecoveryLossPct"`
	MaxRecoveryLoss  float64 `json:"maxRecoveryLossPct"`
	MaxRecoveryName  string  `json:"maxRecoveryBenchmark"`
}

// HeadlineCoverage computes the Section 3 headline over all 16 benchmarks.
func (e *Engine) HeadlineCoverage(budget int64) (Headline, error) {
	cells, err := e.CoverageSweepWarm(workload.Suite(), []core.Config{core.DefaultConfig()}, budget, 0)
	if err != nil {
		return Headline{}, err
	}
	var h Headline
	var det, rec []float64
	for _, c := range cells {
		det = append(det, c.Result.DetectionLoss)
		rec = append(rec, c.Result.RecoveryLoss)
		if c.Result.DetectionLoss > h.MaxDetectionLoss {
			h.MaxDetectionLoss = c.Result.DetectionLoss
			h.MaxDetectionName = c.Benchmark
		}
		if c.Result.RecoveryLoss > h.MaxRecoveryLoss {
			h.MaxRecoveryLoss = c.Result.RecoveryLoss
			h.MaxRecoveryName = c.Benchmark
		}
	}
	h.AvgDetectionLoss = stats.Mean(det)
	h.AvgRecoveryLoss = stats.Mean(rec)
	return h, nil
}

// Figure8Row is one benchmark's fault-injection outcome breakdown.
type Figure8Row struct {
	Benchmark string
	Result    fault.CampaignResult
}

// Figure8 runs the Section 4 fault-injection campaign over the given
// benchmarks (the paper uses the 11 coverage benchmarks plus an average)
// through fault.RunCampaigns, which runs each benchmark's pilot as the
// first job of the previous benchmark's injection pool, cfg.Workers wide.
// The engine's Workers does not apply; OnItem receives each benchmark's plan
// plus injection time.
func (e *Engine) Figure8(profiles []workload.Profile, cfg fault.CampaignConfig) ([]Figure8Row, error) {
	benches := make([]fault.Benchmark, len(profiles))
	for i, p := range profiles {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		benches[i] = fault.Benchmark{Name: p.Name, Prog: prog}
	}
	results, err := fault.RunCampaigns(benches, cfg, e.OnItem)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure8Row, len(results))
	for i, res := range results {
		rows[i] = Figure8Row{Benchmark: res.Benchmark, Result: res}
	}
	return rows, nil
}

// Figure8Table renders the outcome breakdown with one row per benchmark and
// an average row, one column per category (percentages of injected faults).
func Figure8Table(rows []Figure8Row) *stats.Table {
	cats := fault.Categories()
	header := []string{"benchmark"}
	for _, c := range cats {
		header = append(header, string(c))
	}
	header = append(header, "ITR-detected")
	t := stats.NewTable(header...)
	avg := make(map[fault.Category]float64)
	var avgDet float64
	for _, r := range rows {
		cells := []interface{}{r.Benchmark}
		for _, c := range cats {
			pct := r.Result.Pct(c)
			avg[c] += pct
			cells = append(cells, pct)
		}
		avgDet += r.Result.DetectedPct()
		cells = append(cells, r.Result.DetectedPct())
		t.AddRow(cells...)
	}
	if len(rows) > 0 {
		cells := []interface{}{"Avg"}
		for _, c := range cats {
			cells = append(cells, avg[c]/float64(len(rows)))
		}
		cells = append(cells, avgDet/float64(len(rows)))
		t.AddRow(cells...)
	}
	return t
}

// Figure9Row is one benchmark's energy comparison (Figure 9): the ITR cache
// (both port options) against redundantly fetching every instruction from
// the I-cache.
type Figure9Row struct {
	Benchmark      string  `json:"benchmark"`
	ITRSinglePort  float64 `json:"itrSinglePortMJ"`
	ITRDualPort    float64 `json:"itrDualPortMJ"`
	ICacheRedFetch float64 `json:"icacheRedundantFetchMJ"`
}

// Figure9 computes the energy comparison. Access counts are measured at the
// given budget and linearly scaled to scaleInsts dynamic instructions
// (pass 200e6 to match the paper's 200M-instruction windows; 0 disables
// scaling).
//
// The access counts come from a default-configuration coverage sweep — the
// same replay (and the same sweep cell) the Figures 6-7 design space
// contains — instead of a private re-simulation per benchmark. A trace event stream partitions every
// executed instruction into exactly one event, so the measured dynamic
// instruction count is the replay's TotalInsts.
func (e *Engine) Figure9(profiles []workload.Profile, budget, scaleInsts int64) ([]Figure9Row, error) {
	singleNJ, err := energy.AccessEnergyNJ(energy.ITRCacheSinglePort)
	if err != nil {
		return nil, err
	}
	dualNJ, err := energy.AccessEnergyNJ(energy.ITRCacheDualPort)
	if err != nil {
		return nil, err
	}
	iNJ, err := energy.AccessEnergyNJ(energy.Power4ICache)
	if err != nil {
		return nil, err
	}

	cells, err := e.CoverageSweepWarm(profiles, []core.Config{core.DefaultConfig()}, budget, 0)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure9Row, len(profiles))
	for i, p := range profiles {
		res := cells[i].Result
		executed := res.TotalInsts
		scale := 1.0
		if scaleInsts > 0 && executed > 0 {
			scale = float64(scaleInsts) / float64(executed)
		}
		itrAccesses := int64(float64(res.Reads+res.Writes) * scale)
		iAccesses := int64(float64(energy.RedundantFetchAccesses(executed)) * scale)
		rows[i] = Figure9Row{
			Benchmark:      p.Name,
			ITRSinglePort:  energy.EnergyMJ(itrAccesses, singleNJ),
			ITRDualPort:    energy.EnergyMJ(itrAccesses, dualNJ),
			ICacheRedFetch: energy.EnergyMJ(iAccesses, iNJ),
		}
	}
	return rows, nil
}

// Figure9Table renders the energy comparison.
func Figure9Table(rows []Figure9Row) *stats.Table {
	t := stats.NewTable("benchmark", "ITR 1rd/wr (mJ)", "ITR 1rd+1wr (mJ)", "I-cache refetch (mJ)")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.ITRSinglePort, r.ITRDualPort, r.ICacheRedFetch)
	}
	return t
}

// SortCellsByBenchmark orders coverage cells in suite order then by
// associativity and size (stable rendering).
func SortCellsByBenchmark(cells []CoverageCell) {
	order := map[string]int{}
	for i, name := range workload.Names() {
		order[name] = i
	}
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if order[a.Benchmark] != order[b.Benchmark] {
			return order[a.Benchmark] < order[b.Benchmark]
		}
		aa, ba := a.Config.Assoc, b.Config.Assoc
		if aa == 0 {
			aa = 1 << 20
		}
		if ba == 0 {
			ba = 1 << 20
		}
		if aa != ba {
			return aa < ba
		}
		return a.Config.Entries < b.Config.Entries
	})
}
