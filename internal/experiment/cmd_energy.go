package experiment

import (
	"flag"
	"fmt"

	"itr/internal/baseline"
	"itr/internal/core"
	"itr/internal/energy"
	"itr/internal/report"
	"itr/internal/stats"
	"itr/internal/workload"
)

func bindEnergy(fs *flag.FlagSet, s *Spec) {
	fs.Int64Var(&s.Budget, "budget", s.Budget, "dynamic-instruction budget per benchmark")
	fs.Int64Var(&s.Energy.Scale, "scale", s.Energy.Scale, "scale access counts to this many instructions (0 = default 200M, the paper's window; negative = no scaling)")
	fs.BoolVar(&s.Energy.Baselines, "baselines", s.Energy.Baselines, "print the full approach comparison per benchmark")
	fs.BoolVar(&s.Energy.Perf, "perf", s.Energy.Perf, "measure IPC for each protection scheme on the cycle-level core")
	fs.Int64Var(&s.Energy.PerfCycles, "perf-cycles", s.Energy.PerfCycles, "cycle budget per perf measurement")
	fs.StringVar(&s.JSONPath, "json", s.JSONPath, "also write the energy and perf rows to this JSON file")
	fs.IntVar(&s.Workers, "workers", s.Workers, "benchmark worker-pool width (0 = GOMAXPROCS); results are identical at any width")
}

// runEnergy reproduces the paper's Section 5 cost comparison: Figure 9 (ITR
// cache energy vs redundantly fetching every instruction from the I-cache)
// and the die-photo area argument, plus the full baseline comparison table
// and the measured IPC cost of each protection scheme.
func runEnergy(e *Engine) error {
	s := e.Spec
	rep := e.reportEngine(s.Workers)
	w := e.out
	var art report.ArtifactJSON
	scale := s.Energy.Scale
	if scale < 0 {
		scale = 0 // report at the measured budget
	}

	if err := e.stage("figure9", func() error {
		singleNJ, _ := energy.AccessEnergyNJ(energy.ITRCacheSinglePort)
		dualNJ, _ := energy.AccessEnergyNJ(energy.ITRCacheDualPort)
		iNJ, _ := energy.AccessEnergyNJ(energy.Power4ICache)
		fmt.Fprintln(w, "Per-access energies (calibrated CACTI-style model, 0.18 um):")
		fmt.Fprintf(w, "  I-cache (64KB dm, 128B line):        %.2f nJ (paper %.2f)\n", iNJ, energy.PaperICacheNJ)
		fmt.Fprintf(w, "  ITR cache (8KB 2-way, 1 rd/wr port): %.2f nJ (paper %.2f)\n", singleNJ, energy.PaperITRCacheNJ)
		fmt.Fprintf(w, "  ITR cache (8KB 2-way, 1rd+1wr):      %.2f nJ (paper %.2f)\n", dualNJ, energy.PaperITRCacheDualNJ)
		fmt.Fprintln(w)

		rows, err := rep.Figure9(workload.Suite(), s.Budget, scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 9. Energy of ITR cache vs I-cache redundant fetch.")
		if scale > 0 {
			fmt.Fprintf(w, "(access counts scaled to %d dynamic instructions, as in the paper)\n", scale)
		}
		fmt.Fprint(w, report.Figure9Table(rows).String())
		fmt.Fprintln(w)

		cmp := energy.CompareAreas()
		fmt.Fprintln(w, "Section 5 area comparison (IBM S/390 G5 die photo):")
		fmt.Fprintf(w, "  I-unit (fetch+decode): %.1f cm^2\n", cmp.IUnitCM2)
		fmt.Fprintf(w, "  ITR-cache-like BTB:    %.1f cm^2\n", cmp.ITRCacheCM2)
		fmt.Fprintf(w, "  ratio: %.1fx (the ITR cache is about one seventh the I-unit area)\n", cmp.Ratio)
		art.Energy = report.EncodeFigure9(rows)
		return nil
	}); err != nil {
		return err
	}

	if s.Energy.Baselines {
		if err := e.stage("baselines", func() error {
			fmt.Fprintln(w)
			return printBaselines(e, s.Budget, scale)
		}); err != nil {
			return err
		}
	}

	if s.Energy.Perf {
		if err := e.stage("perf", func() error {
			fmt.Fprintln(w)
			fmt.Fprintln(w, "Measured frontend-protection performance (cycle-level core):")
			rows, err := rep.PerfComparison(workload.Suite(), s.Energy.PerfCycles)
			if err != nil {
				return err
			}
			fmt.Fprint(w, report.PerfTable(rows).String())
			fmt.Fprintln(w, "(ITR and structural duplication protect the frontend without consuming")
			fmt.Fprintln(w, " its bandwidth; conventional time redundancy pays for it in IPC.)")
			art.Perf = report.EncodePerf(rows)
			return nil
		}); err != nil {
			return err
		}
	}
	return e.writeArtifact(art)
}

func printBaselines(e *Engine, budget, scale int64) error {
	w := e.out
	fmt.Fprintln(w, "Approach comparison (per benchmark, headline ITR cache):")
	t := stats.NewTable("benchmark", "approach", "det cov (%)", "rec cov (%)", "energy (mJ)", "area (cm^2)")
	baseCfg := core.DefaultConfig()
	fbCfg := baseCfg
	fbCfg.MissFallback = true
	for _, p := range workload.Suite() {
		// One stream traversal fans out to both baseline configurations.
		bank, err := core.NewSimBank([]core.Config{baseCfg, fbCfg}, 0)
		if err != nil {
			return err
		}
		info, err := workload.StreamEventSlices(p, p.ScaledBudget(budget), bank.FeedBlock)
		if err != nil {
			return err
		}
		executed := info.Insts
		e.sweep.StreamsGenerated.Add(1)
		e.sweep.EventsReplayed.Add(info.Events)
		e.sweep.CellsCompleted.Add(int64(bank.Len()))
		rescale := func(res core.Result) core.Result {
			if scale > 0 && executed > 0 {
				f := float64(scale) / float64(executed)
				res.Reads = int64(float64(res.Reads) * f)
				res.Writes = int64(float64(res.Writes) * f)
				res.FallbackInsts = int64(float64(res.FallbackInsts) * f)
			}
			return res
		}
		base := rescale(bank.Result(0))
		fb := rescale(bank.Result(1))
		dyn := executed
		if scale > 0 {
			dyn = scale
		}
		for _, a := range []baseline.Approach{
			baseline.Unprotected, baseline.StructuralDuplication,
			baseline.TimeRedundant, baseline.ITR, baseline.ITRMissFallback,
		} {
			cov := base
			if a == baseline.ITRMissFallback {
				cov = fb
			}
			c, err := baseline.Compare(a, baseline.Workload{Name: p.Name, DynInsts: dyn, Coverage: cov}, energy.ITRCacheSinglePort)
			if err != nil {
				return err
			}
			t.AddRow(p.Name, c.Approach.String(), c.DetectionCoverage, c.RecoveryCoverage, c.EnergyMJ, c.AreaCM2)
		}
	}
	fmt.Fprint(w, t.String())
	return nil
}
