package fault

import (
	"fmt"
	"time"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/obs"
	"itr/internal/par"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/stats"
)

// CampaignConfig parameterizes a Figure 8 campaign on one benchmark.
type CampaignConfig struct {
	// Faults is the number of injections (the paper uses 1000 per
	// benchmark).
	Faults int
	// Seed makes injection sampling reproducible.
	Seed uint64
	// Experiment configures each injection run.
	Experiment Config
	// Workers is the width of the worker pool that runs the injections and,
	// in RunCampaigns, the next benchmark's pilot as the pool's first job
	// (default: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives live campaign telemetry. One
	// Progress may be shared across concurrent campaigns.
	Progress *Progress
	// LatencyCycles and LatencyInsts, when non-nil, receive one
	// observation per detected injection: the machine time from the fault's
	// decode event to the backend's first detection, in pipeline cycles and
	// committed instructions respectively. Share one pair per backend to
	// accumulate a latency distribution across campaigns.
	LatencyCycles *obs.Hist
	LatencyInsts  *obs.Hist
	// Tracer, when non-nil, records the campaign timeline: the pilot's
	// snapshot captures and each worker's injection start/classify events,
	// with the worker's pipeline events interleaved on the same ring.
	Tracer *obs.Tracer
}

// Progress accumulates live campaign telemetry across injection workers and
// benchmarks. Injections is sharded per worker and merged on read, so a
// progress ticker can read it while the campaign runs without making the
// workers contend. Pair it with a pipeline.Probe on
// Experiment.Pipeline.Probe for cycle/decode/restore counts.
type Progress struct {
	// Injections counts completed injection experiments.
	Injections obs.Counter
	// CyclesSimulated and CyclesSaved mirror the campaign Budget live: the
	// pipeline cycles injections actually simulated, and the window cycles
	// the decided-outcome engine skipped (zero under Config.Exact).
	CyclesSimulated obs.Counter
	CyclesSaved     obs.Counter
	// StudyRuns, StudyCyclesSimulated and StudyRunsDecidedEarly account
	// the side studies' runs (PC, ITR-cache and rename; a rename injection
	// is two runs), which the counters above leave out: runs completed,
	// pipeline cycles they simulated, and runs the decided-outcome engine
	// stopped before their window's end (zero under Config.Exact).
	StudyRuns             obs.Counter
	StudyCyclesSimulated  obs.Counter
	StudyRunsDecidedEarly obs.Counter
}

// DefaultCampaignConfig returns a scaled-down campaign (raise Faults to 1000
// and Experiment.WindowCycles to 1M for paper fidelity).
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Faults:     100,
		Seed:       0x17b,
		Experiment: DefaultConfig(),
	}
}

// CampaignResult aggregates one benchmark's injections.
type CampaignResult struct {
	Benchmark string
	Total     int
	Counts    map[Category]int
	// ByField tallies injections by the Table 2 field hit.
	ByField map[string]int
	// RecoveryConfirmed counts recoverable detections whose verify run
	// actually recovered (retry matched, no machine check, no SDC).
	RecoveryConfirmed int
	RecoveryAttempted int
	// CheckpointRecovered counts detection-only faults (the ITR+SDC+D
	// class) that the checkpointing extension converted into rollbacks.
	CheckpointRecovered int
	// Snapshots is the number of pilot snapshots retained for fast-forward
	// (after pruning to the ones some injection actually resumes from);
	// SnapshotPages is the total page count they reference. Snapshot memory
	// is captured copy-on-write, so consecutive snapshots share unchanged
	// pages by reference and SnapshotPages counts a shared page once per
	// snapshot referencing it; SnapshotOwnedPages counts each distinct page
	// once — the series' actual resident footprint, which page sharing cuts
	// from SnapshotPages by the reuse factor. All are zero on the cold path.
	Snapshots          int
	SnapshotPages      int
	SnapshotOwnedPages int
	// Budget accounts the decided-outcome engine's work: cycles simulated
	// versus window cycles skipped, per outcome class.
	Budget  Budget
	Details []Detail
}

// Pct returns the percentage of injections in category c.
func (r CampaignResult) Pct(c Category) float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Counts[c]) / float64(r.Total)
}

// DetectedPct returns the percentage of injections detected through the ITR
// cache (the paper reports 95.4% on average).
func (r CampaignResult) DetectedPct() float64 {
	return r.Pct(ITRMask) + r.Pct(ITRSDCR) + r.Pct(ITRSDCD) + r.Pct(ITRWdogR)
}

func (r CampaignResult) String() string {
	return fmt.Sprintf("%s: %d faults, %.1f%% ITR-detected", r.Benchmark, r.Total, r.DetectedPct())
}

// RunCampaign injects cfg.Faults random decode-signal faults into prog and
// classifies each: RunCampaigns on one benchmark.
func RunCampaign(name string, prog *program.Program, cfg CampaignConfig) (CampaignResult, error) {
	res, err := RunCampaigns([]Benchmark{{Name: name, Prog: prog}}, cfg, nil)
	if err != nil {
		return CampaignResult{}, err
	}
	return res[0], nil
}

// Benchmark is one program of a multi-benchmark campaign.
type Benchmark struct {
	Name string
	Prog *program.Program
}

// RunCampaigns runs one campaign per benchmark with the same configuration
// and returns the results in order. Each campaign has two halves: a plan
// (a fault-free pilot over the window, the injection sample drawn from the
// pilot's decode events, and the pilot snapshots those injections resume
// from) and an injection phase (the worker pool and the tally). No plan
// depends on another benchmark, so benchmark k+1's plan is job 0 of
// benchmark k's injection pool: it holds one of cfg.Workers workers
// (GOMAXPROCS when zero) while the others run k's injections, so at most
// cfg.Workers goroutines simulate at once, and Workers: 1 runs everything
// one at a time. Only one plan runs ahead, so at most two benchmarks'
// snapshot series are alive at once. Results are identical to one
// RunCampaign call per benchmark.
//
// done, when non-nil, receives each benchmark's name and the time its plan
// and its injection phase took, in benchmark order. On failure the error is
// the lowest-index benchmark's, and no goroutine outlives the call.
func RunCampaigns(benches []Benchmark, cfg CampaignConfig, done func(name string, elapsed time.Duration)) ([]CampaignResult, error) {
	if cfg.Faults <= 0 {
		return nil, fmt.Errorf("campaign: non-positive fault count %d", cfg.Faults)
	}
	if len(benches) == 0 {
		return nil, nil
	}
	t := time.Now()
	p, err := plan(benches[0].Prog, cfg)
	took := time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", benches[0].Name, err)
	}
	results := make([]CampaignResult, len(benches))
	for k, b := range benches {
		var ahead func()
		var next campaignPlan
		var nextTook time.Duration
		var nextErr error
		if k+1 < len(benches) {
			ahead = func() {
				t := time.Now()
				next, nextErr = plan(benches[k+1].Prog, cfg)
				nextTook = time.Since(t)
			}
		}
		res, injected, err := inject(b, p, cfg, ahead)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if done != nil {
			done(b.Name, took+injected)
		}
		if nextErr != nil {
			return nil, fmt.Errorf("%s: %w", benches[k+1].Name, nextErr)
		}
		results[k] = res
		p, took = next, nextTook
	}
	return results, nil
}

// campaignPlan is one benchmark's fault-free half of a campaign: the
// injection sample and the pruned pilot snapshots it resumes from.
type campaignPlan struct {
	injections []Injection
	snaps      snapSeries
}

// plan runs prog's pilot: it profiles the decode-event space once,
// fault-free, dropping a resumable snapshot every SnapshotInterval decode
// events, then samples the injections and prunes the snapshots none of them
// resumes from. The pilot uses the observe run's exact configuration (mode
// aside, which Restore ignores) so its snapshots restore into every
// injection run. A fault-free machine's trajectory is mode-independent — the
// checker modes differ only in how detections are handled — so the
// decode-event space matches what any injection run sees up to its fault
// point.
func plan(prog *program.Program, cfg CampaignConfig) (campaignPlan, error) {
	pilotCfg := cfg.Experiment
	if cfg.Tracer != nil {
		pilotCfg.Pipeline.Trace = cfg.Tracer.Ring("fault-pilot")
	}
	pilot, err := pipeline.New(prog, pilotCfg.pipelineConfig(core.ModeObserve))
	if err != nil {
		return campaignPlan{}, fmt.Errorf("campaign pilot: %w", err)
	}
	snaps := pilotSeries(pilot, cfg.Experiment.WindowCycles, cfg.Experiment.EffectiveSnapshotInterval())
	injections, err := sample(pilot.DecodeEvents(), cfg)
	if err != nil {
		return campaignPlan{}, err
	}
	points := make([]int64, len(injections))
	for i, inj := range injections {
		points[i] = inj.DecodeIndex
	}
	return campaignPlan{injections, prune(snaps, points)}, nil
}

// sample draws cfg.Faults injections from a pilot's decodeSpace decode
// events: decode index in the first half of the window so every fault has
// at least half the window of observation; bit uniform over the 64 Table 2
// signal bits.
func sample(decodeSpace int64, cfg CampaignConfig) ([]Injection, error) {
	if decodeSpace < 100 {
		return nil, fmt.Errorf("campaign: window too small (%d decode events)", decodeSpace)
	}
	rng := stats.NewRNG(cfg.Seed)
	lo := decodeSpace / 20
	hi := decodeSpace / 2
	injections := make([]Injection, cfg.Faults)
	for i := range injections {
		injections[i] = Injection{
			DecodeIndex: lo + int64(rng.Uint64n(uint64(hi-lo))),
			Bit:         rng.Intn(isa.SignalBits),
		}
	}
	return injections, nil
}

// inject runs a planned campaign's injections on the worker pool, with
// ahead (when non-nil) as the pool's job 0, and tallies them. It also
// returns the injection phase's time: from its start to the end of the last
// injection, whether or not ahead is still running.
func inject(b Benchmark, p campaignPlan, cfg CampaignConfig, ahead func()) (CampaignResult, time.Duration, error) {
	res := CampaignResult{
		Benchmark: b.Name,
		Counts:    make(map[Category]int),
		ByField:   make(map[string]int),
	}
	res.Snapshots = len(p.snaps)
	distinct := make(map[uint64]struct{})
	for _, s := range p.snaps {
		res.SnapshotPages += s.MemPages()
		s.VisitMemPages(func(id uint64) { distinct[id] = struct{}{} })
	}
	res.SnapshotOwnedPages = len(distinct)

	oracle := NewSigOracle(b.Prog)
	budgets := make([]runBudget, cfg.Faults)
	ends := make([]time.Time, cfg.Faults)
	start := time.Now()
	details, err := runPool(b.Prog, cfg.Workers, cfg.Faults, ahead, func(a *arena, i int) (Detail, error) {
		// A worker's ring is single-writer: its arena machines run on the
		// worker's goroutine, so their pipeline events interleave with the
		// injection markers safely.
		wcfg := cfg.Experiment
		var ring *obs.Ring
		if cfg.Tracer != nil {
			ring = cfg.Tracer.Ring(fmt.Sprintf("fault-worker-%d", a.worker))
			wcfg.Pipeline.Trace = ring
		}
		inj := p.injections[i]
		ring.Emit(obs.EvInjectStart, inj.DecodeIndex, int64(inj.Bit))
		d, err := runOne(oracle, wcfg, inj, p.snaps, a, &budgets[i])
		detected := int64(0)
		if err == nil && d.Detected {
			detected = 1
			if d.LatencyCycles >= 0 {
				if cfg.LatencyCycles != nil {
					cfg.LatencyCycles.Observe(d.LatencyCycles)
				}
				if cfg.LatencyInsts != nil {
					cfg.LatencyInsts.Observe(d.LatencyInsts)
				}
			}
		}
		ring.Emit(obs.EvInjectClassify, inj.DecodeIndex, detected)
		if cfg.Progress != nil {
			cfg.Progress.Injections.AddAt(uint32(a.worker), 1)
			cfg.Progress.CyclesSimulated.AddAt(uint32(a.worker), budgets[i].simulated)
			cfg.Progress.CyclesSaved.AddAt(uint32(a.worker), budgets[i].saved)
		}
		ends[i] = time.Now()
		return d, err
	})
	if err != nil {
		return res, 0, err
	}
	var last time.Time
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}

	for i, d := range details {
		res.Total++
		res.Counts[d.Category]++
		res.ByField[d.Injection.Field()]++
		res.Budget.add(budgets[i], d.Category)
		if d.Verified && d.Detected && d.Recoverable {
			res.RecoveryAttempted++
			if d.RecoveredInFull && !d.MachineCheck && !d.SDCUnderITR {
				res.RecoveryConfirmed++
			}
		}
		if d.CheckpointRecovered {
			res.CheckpointRecovered++
		}
	}
	res.Details = details
	return res, last.Sub(start), nil
}

// runPool runs job(a, i) for i in [0, n) on par.Each at the given width,
// after ahead (when non-nil) as the pool's job 0: the one worker pool every
// fault study shares. Each worker index recycles machines through its own
// arena, and results land by index, so they are identical at any width; the
// lowest-index error wins.
func runPool[T any](prog *program.Program, workers, n int, ahead func(), job func(a *arena, i int) (T, error)) ([]T, error) {
	skip := 0
	if ahead != nil {
		skip = 1
	}
	outs := make([]T, n)
	arenas := make([]arena, n+skip) // worker indices are below the job count
	err := par.Each(workers, n+skip, func(w, j int) error {
		i := j - skip
		if i < 0 {
			ahead()
			return nil
		}
		a := &arenas[w]
		a.prog, a.worker = prog, w
		var err error
		if outs[i], err = job(a, i); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
		return nil
	})
	return outs, err
}
