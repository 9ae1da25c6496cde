package experiment

import (
	"flag"
	"fmt"

	"itr/internal/report"
	"itr/internal/stats"
	"itr/internal/workload"
)

func bindChar(fs *flag.FlagSet, s *Spec) {
	fs.IntVar(&s.Char.Fig, "fig", s.Char.Fig, "figure to reproduce (1, 2, 3 or 4); 0 prints everything")
	fs.BoolVar(&s.Char.Table1, "table1", s.Char.Table1, "print Table 1 (static trace counts)")
	fs.Int64Var(&s.Budget, "budget", s.Budget, "dynamic-instruction budget per benchmark (scaled per profile)")
	fs.StringVar(&s.JSONPath, "json", s.JSONPath, "also write the regenerated figures and Table 1 to this JSON file")
	fs.IntVar(&s.Workers, "workers", s.Workers, "worker-pool width for per-benchmark characterization (0 = GOMAXPROCS); results are identical at any width")
}

// charFigures are Figures 1-4 in order: the top-k popularity CDF sampled
// every step traces up to limit (Figures 1-2), or, with step 0, the repeat
// distance distribution (Figures 3-4), over the integer or fp suite.
var charFigures = [...]struct {
	fp          bool
	step, limit int
	caption     string // printed above the series
	title       string // the artifact JSON title
}{
	{false, 100, 1000, "Figure 1. Dynamic instructions per 100 static traces (integer benchmarks).\n" +
		"Cumulative % of dynamic instructions from the top-k static traces:", "Dynamic instructions per 100 static traces (int)"},
	{true, 50, 500, "Figure 2. Dynamic instructions per 50 static traces (floating point benchmarks).",
		"Dynamic instructions per 50 static traces (fp)"},
	{false, 0, 0, "Figure 3. Distance between trace repetitions (integer benchmarks).\n" +
		"Cumulative % of dynamic instructions from repetitions within distance d:", "Distance between trace repetitions (int)"},
	{true, 0, 0, "Figure 4. Distance between trace repetitions (floating point benchmarks).",
		"Distance between trace repetitions (fp)"},
}

// runChar reproduces the paper's program-repetition characterization:
// Figures 1-2 (dynamic instructions contributed by the top-k static
// traces), Figures 3-4 (dynamic instructions by trace repeat distance) and
// Table 1 (static trace counts).
func runChar(e *Engine) error {
	s := e.Spec
	rep := e.reportEngine(s.Workers)
	w := e.out
	var art report.ArtifactJSON
	all := s.Char.Fig == 0 && !s.Char.Table1

	for i, f := range charFigures {
		if s.Char.Fig != i+1 && !all {
			continue
		}
		id := fmt.Sprintf("figure%d", i+1)
		if err := e.stage(id, func() error {
			suite := workload.IntSuite()
			if f.fp {
				suite = workload.FPSuite()
			}
			x, xLabel := "top-k", "top-k traces"
			var series []stats.Series
			var err error
			if f.step > 0 {
				series, err = rep.PopularityFigure(suite, f.step, f.limit, s.Budget)
			} else {
				x, xLabel = "< d", "< distance"
				series, err = rep.DistanceFigure(suite, s.Budget)
			}
			if err != nil {
				return err
			}
			fmt.Fprintln(w, f.caption)
			fmt.Fprint(w, stats.RenderSeries(x, series, "%.0f"))
			fmt.Fprintln(w)
			art.Figures = append(art.Figures, report.EncodeSeries(id, f.title, xLabel, "% dyn insts", series))
			return nil
		}); err != nil {
			return err
		}
	}
	if s.Char.Table1 || all {
		if err := e.stage("table1", func() error {
			rows, err := rep.Table1(s.Budget)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Table 1. Number of static traces for SPEC.")
			t := stats.NewTable("benchmark", "suite", "measured", "paper")
			for _, r := range rows {
				suite := "SPECint"
				if r.FP {
					suite = "SPECfp"
				}
				t.AddRow(r.Benchmark, suite, r.Measured, r.Paper)
			}
			fmt.Fprint(w, t.String())
			art.Table1 = report.EncodeTable1(rows)
			return nil
		}); err != nil {
			return err
		}
	}
	return e.writeArtifact(art)
}
