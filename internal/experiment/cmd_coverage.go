package experiment

import (
	"flag"
	"fmt"

	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/report"
	"itr/internal/workload"
)

func bindCoverage(fs *flag.FlagSet, s *Spec) {
	fs.StringVar(&s.Coverage.Metric, "metric", s.Coverage.Metric, "detection, recovery or both")
	fs.StringVar(&s.Bench, "bench", s.Bench, "restrict to one benchmark (default: the 11 shown in Figures 6-7)")
	fs.BoolVar(&s.Coverage.Headline, "headline", s.Coverage.Headline, "print the Section 3 summary for 2-way/1024")
	fs.BoolVar(&s.Coverage.Ablation, "ablation", s.Coverage.Ablation, "also evaluate checked-LRU replacement and miss fallback")
	fs.Int64Var(&s.Budget, "budget", s.Budget, "dynamic-instruction budget per benchmark")
	fs.Int64Var(&s.Warmup, "warmup", s.Warmup, "instructions to warm the ITR cache before measurement (paper: 900M skip)")
	fs.StringVar(&s.JSONPath, "json", s.JSONPath, "also write the sweep cells to this JSON file")
	fs.IntVar(&s.Workers, "workers", s.Workers, "worker-pool width for the sweep (0 = GOMAXPROCS); results are identical at any width")
}

// runCoverage reproduces the paper's Section 3 design-space exploration:
// loss in fault detection coverage (Figure 6) and loss in fault recovery
// coverage (Figure 7) across ITR cache sizes and associativities, plus the
// Section 3 headline summary for the 2-way/1024 configuration.
func runCoverage(e *Engine) error {
	s := e.Spec
	rep := e.reportEngine(s.Workers)
	w := e.out
	var art report.ArtifactJSON

	if s.Coverage.Headline {
		return e.stage("headline", func() error {
			h, err := rep.HeadlineCoverage(s.Budget)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Section 3 headline (2-way set-associative, 1024 signatures):")
			fmt.Fprintf(w, "  loss in fault detection coverage: %.1f%% average, %.1f%% max (%s)\n",
				h.AvgDetectionLoss, h.MaxDetectionLoss, h.MaxDetectionName)
			fmt.Fprintf(w, "  loss in fault recovery  coverage: %.1f%% average, %.1f%% max (%s)\n",
				h.AvgRecoveryLoss, h.MaxRecoveryLoss, h.MaxRecoveryName)
			fmt.Fprintln(w, "  (paper: 1.3% avg / 8.2% max detection; 2.5% avg / 15% max recovery, both vortex)")
			art.Headline = &h
			return e.writeArtifact(art)
		})
	}

	profiles := workload.CoverageSuite()
	if s.Bench != "" {
		p, err := workload.ByName(s.Bench)
		if err != nil {
			return err
		}
		profiles = []workload.Profile{p}
	}

	var cells []report.CoverageCell
	if err := e.stage("sweep", func() error {
		var err error
		cells, err = rep.CoverageSweepWarm(profiles, core.DesignSpace(), s.Budget, s.Warmup)
		if err != nil {
			return err
		}
		report.SortCellsByBenchmark(cells)

		if s.Coverage.Metric == "detection" || s.Coverage.Metric == "both" {
			fmt.Fprintln(w, "Figure 6. Loss in fault detection coverage (% of all dynamic instructions).")
			fmt.Fprint(w, report.CoverageTable(cells, "detection").String())
			fmt.Fprintln(w)
		}
		if s.Coverage.Metric == "recovery" || s.Coverage.Metric == "both" {
			fmt.Fprintln(w, "Figure 7. Loss in fault recovery coverage (% of all dynamic instructions).")
			fmt.Fprint(w, report.CoverageTable(cells, "recovery").String())
			fmt.Fprintln(w)
		}
		return nil
	}); err != nil {
		return err
	}

	if s.Coverage.Ablation {
		if err := e.stage("ablation", func() error {
			return runCoverageAblation(e, rep, profiles, s.Budget)
		}); err != nil {
			return err
		}
	}

	art.Coverage = report.EncodeCoverage(cells)
	return e.writeArtifact(art)
}

// runCoverageAblation evaluates the two Section 2.3 / Section 3 extensions
// at the headline configuration: checked-first LRU replacement and
// redundant fetch-on-miss.
func runCoverageAblation(e *Engine, rep *report.Engine, profiles []workload.Profile, budget int64) error {
	w := e.out
	base := core.DefaultConfig()
	checked := base
	checked.Replacement = cache.ReplCheckedLRU
	fallback := base
	fallback.MissFallback = true

	cells, err := rep.CoverageSweepWarm(profiles, []core.Config{base, checked, fallback}, budget, 0)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation (2-way/1024): LRU vs checked-first LRU vs miss fallback.")
	fmt.Fprintf(w, "%-10s %-22s %12s %12s %14s\n", "benchmark", "variant", "det loss (%)", "rec loss (%)", "refetch insts")
	for _, c := range cells {
		variant := "lru"
		switch {
		case c.Config.Replacement == cache.ReplCheckedLRU:
			variant = "checked-lru"
		case c.Config.MissFallback:
			variant = "lru+miss-fallback"
		}
		fmt.Fprintf(w, "%-10s %-22s %12.2f %12.2f %14d\n",
			c.Benchmark, variant, c.Result.DetectionLoss, c.Result.RecoveryLoss, c.Result.FallbackInsts)
	}
	return nil
}
