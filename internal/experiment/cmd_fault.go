package experiment

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"itr/internal/detect"
	"itr/internal/fault"
	"itr/internal/obs"
	"itr/internal/report"
	"itr/internal/stats"
	"itr/internal/workload"
)

func bindFault(fs *flag.FlagSet, s *Spec) {
	fs.IntVar(&s.Campaign.Faults, "faults", s.Campaign.Faults, "injections per benchmark (paper: 1000)")
	fs.Int64Var(&s.Campaign.Window, "window", s.Campaign.Window, "observation window in cycles (paper: 1,000,000)")
	fs.StringVar(&s.Bench, "bench", s.Bench, "restrict to one benchmark")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "campaign seed")
	fs.StringVar(&s.Detector, "detector", s.Detector,
		fmt.Sprintf("detection backend: %s (default itr)", strings.Join(detect.Names(), ", ")))
	fs.Var(negBool{&s.Campaign.NoVerify}, "verify", "confirm each recoverable detection with the full protocol")
	fs.BoolVar(&s.Campaign.Fields, "fields", s.Campaign.Fields, "also tally injections by Table 2 field")
	fs.BoolVar(&s.Campaign.Checkpoint, "checkpoint", s.Campaign.Checkpoint, "enable coarse-grain checkpointing in verify runs (Section 2.3 extension)")
	fs.IntVar(&s.Campaign.PCFaults, "pc", s.Campaign.PCFaults, "run a Section 2.5 PC-fault study with this many injections per benchmark")
	fs.IntVar(&s.Campaign.CacheFaults, "cache", s.Campaign.CacheFaults, "run a Section 2.4 ITR-cache fault study with this many injections per benchmark")
	fs.IntVar(&s.Campaign.RenameFaults, "rename", s.Campaign.RenameFaults, "run the rename-protection study with this many injections per benchmark")
	fs.StringVar(&s.JSONPath, "json", s.JSONPath, "also write the Figure 8 campaign results to this JSON file")
	fs.IntVar(&s.Workers, "workers", s.Workers, "Figure 8 worker-pool width (0 = GOMAXPROCS); each benchmark's pool also runs the next benchmark's pilot as its first job; the -pc, -cache and -rename studies always run GOMAXPROCS-wide; results are identical at any width")
	fs.Int64Var(&s.Campaign.SnapshotInterval, "snapshot-interval", s.Campaign.SnapshotInterval,
		fmt.Sprintf("decode events between pilot snapshots for campaign fast-forward (0 = default %d, negative = disabled); results are identical either way", fault.DefaultSnapshotInterval))
	fs.BoolVar(&s.Campaign.LatencyHist, "latency-hist", s.Campaign.LatencyHist,
		"print the detection-latency distribution (cycles and trace length from injection to detection)")
	fs.BoolVar(&s.Campaign.Exact, "exact", s.Campaign.Exact,
		"disable decided-outcome early exits: simulate every injection's full window (reference path; categories are identical either way)")
}

// printLatencyHist renders one detection-latency histogram as a log2-bucket
// table with cumulative percentages and quantile summaries. Latency
// observations are deterministic per spec (worker order only permutes them,
// and the buckets are order-blind), so the table is digest-stable.
func printLatencyHist(w io.Writer, title string, h *obs.Hist) {
	fmt.Fprintf(w, "\n%s\n", title)
	n := h.Count()
	if n == 0 {
		fmt.Fprintln(w, "  (no detections)")
		return
	}
	t := stats.NewTable("latency <=", "count", "cum (%)")
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.Count
		t.AddRow(b.Hi, b.Count, 100*float64(cum)/float64(n))
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "p50 <= %d, p90 <= %d, p99 <= %d over %d detections (mean %.1f)\n",
		h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), n, h.Mean())
}

// runFault reproduces the paper's Section 4 fault-injection study
// (Figure 8): random single-bit flips on the decode signals of Table 2,
// classified against a fault-free golden shadow into the ten outcome
// categories, plus the optional PC-fault, cache-fault and rename studies.
func runFault(e *Engine) error {
	s := e.Spec
	w := e.out

	if !detect.Known(s.Detector) {
		return fmt.Errorf("unknown detector backend %q (have %s)", s.Detector, strings.Join(detect.Names(), ", "))
	}
	if s.Campaign.CacheFaults > 0 && detect.Canonical(s.Detector) != detect.NameITR {
		return fmt.Errorf("-cache studies the ITR signature cache and requires -detector=itr")
	}

	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = s.Campaign.Faults
	cfg.Seed = s.Seed
	cfg.Workers = s.Workers
	cfg.Progress = e.camp
	cfg.Experiment.WindowCycles = s.Campaign.Window
	cfg.Experiment.Verify = !s.Campaign.NoVerify
	cfg.Experiment.Checkpoint = s.Campaign.Checkpoint
	cfg.Experiment.SnapshotInterval = s.Campaign.SnapshotInterval
	cfg.Experiment.Exact = s.Campaign.Exact
	cfg.Experiment.Pipeline.Detector = s.Detector
	cfg.Experiment.Pipeline.Probe = e.probe
	cfg.Tracer = e.tracer
	latCycles, latInsts := e.latencyHists(detect.Canonical(s.Detector))
	cfg.LatencyCycles, cfg.LatencyInsts = latCycles, latInsts
	e.manifest.SnapshotInterval = cfg.Experiment.EffectiveSnapshotInterval()

	profiles := workload.CoverageSuite()
	if s.Bench != "" {
		p, err := workload.ByName(s.Bench)
		if err != nil {
			return err
		}
		profiles = []workload.Profile{p}
	}

	// Figure8 bounds all campaign parallelism by cfg.Workers, so the report
	// pool's width does not apply to it.
	rep := e.reportEngine(s.Workers)

	// The default backend keeps the historical header byte-for-byte; rivals
	// name themselves instead of the ITR cache geometry.
	backendDesc := "ITR cache 2-way/1024"
	if name := detect.Canonical(s.Detector); name != detect.NameITR {
		backendDesc = "detector " + name
	}

	var rows []report.Figure8Row
	if err := e.stage("campaign", func() error {
		fmt.Fprintf(w, "Figure 8. Fault injection results: %d faults/benchmark, %d-cycle window, %s.\n",
			cfg.Faults, cfg.Experiment.WindowCycles, backendDesc)
		start := time.Now()
		var err error
		rows, err = rep.Figure8(profiles, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure8Table(rows).String())
		if s.JSONPath != "" {
			f, err := os.Create(s.JSONPath)
			if err != nil {
				return err
			}
			if err := report.WriteJSON(f, report.EncodeCampaigns(rows)); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		// The elapsed time is the one nondeterministic part of the stage
		// output; route it around the digest so reruns hash identically.
		fmt.Fprintf(w, "(%d campaigns", len(rows))
		fmt.Fprintf(e.rawOut(), " in %v", time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(w, ")")
		snaps, pages, owned := 0, 0, 0
		for _, r := range rows {
			snaps += r.Result.Snapshots
			pages += r.Result.SnapshotPages
			owned += r.Result.SnapshotOwnedPages
		}
		if snaps > 0 {
			fmt.Fprintf(w, "(snapshot fast-forward: %d pilot snapshots retained, %d page refs sharing %d distinct pages ≈ %.1f MiB resident, copy-on-write)\n",
				snaps, pages, owned, float64(owned)*4096/(1<<20))
		}
		var bud fault.Budget
		for _, r := range rows {
			bud.Merge(r.Result.Budget)
			e.addBudget(r.Result.Budget)
		}
		if bud.DecidedEarly > 0 {
			total := bud.CyclesSimulated + bud.CyclesSaved
			fmt.Fprintf(w, "(decided-outcome: %d injections settled early, %d verify runs forked; %d of %d window cycles skipped ≈ %.1f%%",
				bud.DecidedEarly, bud.VerifyForked, bud.CyclesSaved, total,
				100*float64(bud.CyclesSaved)/float64(total))
			if bud.ProofFallbacks > 0 {
				fmt.Fprintf(w, "; %d proof fallbacks", bud.ProofFallbacks)
			}
			fmt.Fprintln(w, ")")
		}
		fmt.Fprintln(w, "(paper averages: 95.4% ITR-detected; ITR+Mask 59.4%, ITR+SDC+R 32%, ITR+wdog+R 3%,")
		fmt.Fprintln(w, " ITR+SDC+D 1%, Undet+SDC 2.6%, Undet+Mask 1.8%, spc+SDC 0.1%, Undet+wdog 0.1%)")

		verified, attempted := 0, 0
		for _, r := range rows {
			verified += r.Result.RecoveryConfirmed
			attempted += r.Result.RecoveryAttempted
		}
		if attempted > 0 {
			fmt.Fprintf(w, "Recovery verification: %d/%d recoverable detections recovered by the full protocol.\n",
				verified, attempted)
		}

		if s.Campaign.Checkpoint {
			recovered := 0
			for _, r := range rows {
				recovered += r.Result.CheckpointRecovered
			}
			fmt.Fprintf(w, "Checkpoint extension: %d detection-only faults recovered by rollback.\n", recovered)
		}

		if s.Campaign.Fields {
			fmt.Fprintln(w, "\nInjections by Table 2 field:")
			for _, r := range rows {
				fmt.Fprintf(w, "  %-8s", r.Benchmark)
				for field, n := range r.Result.ByField {
					fmt.Fprintf(w, " %s:%d", field, n)
				}
				fmt.Fprintln(w)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if s.Campaign.LatencyHist {
		if err := e.stage("latency-hist", func() error {
			printLatencyHist(w, "Detection latency (cycles from injection to first detection):", latCycles)
			printLatencyHist(w, "Trace length at detection (instructions committed since injection):", latInsts)
			return nil
		}); err != nil {
			return err
		}
	}

	if s.Campaign.PCFaults > 0 {
		if err := e.stage("pc-study", func() error {
			fmt.Fprintf(w, "\nSection 2.5 PC-fault study (%d injections/benchmark):\n", s.Campaign.PCFaults)
			fmt.Fprintf(w, "%-10s %8s %14s %6s %16s %8s %6s\n",
				"benchmark", "itr(%)", "branch-rep(%)", "spc(%)", "undetect-sdc(%)", "mask(%)", "wdog(%)")
			for _, p := range profiles {
				prog, err := workload.CachedProgram(p)
				if err != nil {
					return err
				}
				res, err := fault.RunPCFaultCampaign(prog, cfg.Experiment, s.Campaign.PCFaults, s.Seed)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-10s %8.1f %14.1f %6.1f %16.1f %8.1f %6.1f\n", p.Name,
					res.Pct(fault.PCDetectedITR), res.Pct(fault.PCDetectedBranch),
					res.Pct(fault.PCDetectedSpc), res.Pct(fault.PCUndetectedSDC),
					res.Pct(fault.PCMasked), res.Pct(fault.PCDeadlock))
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if s.Campaign.CacheFaults > 0 {
		if err := e.stage("cache-study", func() error {
			fmt.Fprintf(w, "\nSection 2.4 ITR-cache fault study (%d injections/benchmark):\n", s.Campaign.CacheFaults)
			fmt.Fprintf(w, "%-10s %-10s %22s %18s %10s %5s\n",
				"benchmark", "parity", "false-machine-check(%)", "parity-repaired(%)", "masked(%)", "sdc")
			for _, p := range profiles {
				prog, err := workload.CachedProgram(p)
				if err != nil {
					return err
				}
				for _, parity := range []bool{false, true} {
					res, err := fault.RunCacheFaultCampaign(prog, cfg.Experiment, parity, s.Campaign.CacheFaults, s.Seed)
					if err != nil {
						return err
					}
					pct := func(o fault.CacheFaultOutcome) float64 {
						if res.Total == 0 {
							return 0
						}
						return 100 * float64(res.Counts[o]) / float64(res.Total)
					}
					fmt.Fprintf(w, "%-10s %-10v %22.1f %18.1f %10.1f %5d\n", p.Name, parity,
						pct(fault.CacheFalseMachineCheck), pct(fault.CacheParityRepaired),
						pct(fault.CacheMasked), res.SDC)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if s.Campaign.RenameFaults > 0 {
		if err := e.stage("rename-study", func() error {
			fmt.Fprintf(w, "\nRename-unit protection study (%d injections/benchmark):\n", s.Campaign.RenameFaults)
			fmt.Fprintf(w, "%-10s %18s %18s %14s %16s %14s\n",
				"benchmark", "sdc w/o ext (%)", "frontend-det (%)", "ext-det (%)", "ext-recover (%)", "sdc w/ ext (%)")
			for _, p := range profiles {
				prog, err := workload.CachedProgram(p)
				if err != nil {
					return err
				}
				res, err := fault.RunRenameCampaign(prog, cfg.Experiment, s.Campaign.RenameFaults, s.Seed)
				if err != nil {
					return err
				}
				pct := func(n int) float64 {
					if res.Total == 0 {
						return 0
					}
					return 100 * float64(n) / float64(res.Total)
				}
				fmt.Fprintf(w, "%-10s %18.1f %18.1f %14.1f %16.1f %14.1f\n", p.Name,
					res.SDCWithoutPct(), pct(res.FrontendDetected), res.DetectedPct(),
					pct(res.RecoveredWithExtension), pct(res.SDCWithExtension))
			}
			fmt.Fprintln(w, "(frontend ITR is blind to pure rename-index faults; the rename-signature")
			fmt.Fprintln(w, " extension closes the gap, per the paper's Section 1 discussion of RNA)")
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
