package fault

import (
	"fmt"
	"runtime"
	"sync"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/obs"
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
	// Workers bounds parallel experiments (default: GOMAXPROCS).
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
// classifies each. Injection points are sampled uniformly over the decode
// events of a profiling run covering the observation window, so every fault
// lands with room to be observed.
func RunCampaign(name string, prog *program.Program, cfg CampaignConfig) (CampaignResult, error) {
	res := CampaignResult{
		Benchmark: name,
		Counts:    make(map[Category]int),
		ByField:   make(map[string]int),
	}
	if cfg.Faults <= 0 {
		return res, fmt.Errorf("campaign: non-positive fault count %d", cfg.Faults)
	}

	// Pilot run: profile the decode-event space once, fault-free, dropping a
	// resumable snapshot every SnapshotInterval decode events. The pilot uses
	// the observe run's exact configuration (mode aside, which Restore
	// ignores) so its snapshots restore into every injection run. A fault-
	// free machine's trajectory is mode-independent — the checker modes
	// differ only in how detections are handled — so the decode-event space
	// matches what any injection run sees up to its fault point.
	pilotCfg := cfg.Experiment
	if cfg.Tracer != nil {
		pilotCfg.Pipeline.Trace = cfg.Tracer.Ring("fault-pilot")
	}
	pilot, err := pipeline.New(prog, pilotCfg.pipelineConfig(core.ModeObserve))
	if err != nil {
		return res, fmt.Errorf("campaign pilot: %w", err)
	}
	snaps := pilotSeries(pilot, cfg.Experiment.WindowCycles, cfg.Experiment.EffectiveSnapshotInterval())
	decodeSpace := pilot.DecodeEvents()
	if decodeSpace < 100 {
		return res, fmt.Errorf("campaign: window too small (%d decode events)", decodeSpace)
	}

	// Sample injections: decode index in the first half of the window so
	// every fault has at least half the window of observation; bit uniform
	// over the 64 Table 2 signal bits.
	rng := stats.NewRNG(cfg.Seed)
	lo := decodeSpace / 20
	hi := decodeSpace / 2
	injections := make([]Injection, cfg.Faults)
	points := make([]int64, cfg.Faults)
	for i := range injections {
		injections[i] = Injection{
			DecodeIndex: lo + int64(rng.Uint64n(uint64(hi-lo))),
			Bit:         rng.Intn(isa.SignalBits),
		}
		points[i] = injections[i].DecodeIndex
	}

	rc := &replayContext{snaps: prune(snaps, points), stream: pilotStream(prog, pilot)}
	res.Snapshots = len(rc.snaps)
	distinct := make(map[uint64]struct{})
	for _, s := range rc.snaps {
		res.SnapshotPages += s.MemPages()
		s.VisitMemPages(func(id uint64) { distinct[id] = struct{}{} })
	}
	res.SnapshotOwnedPages = len(distinct)

	oracle := NewSigOracle(prog)
	budgets := make([]runBudget, cfg.Faults)
	details, err := runPool(prog, cfg.Workers, cfg.Faults, func(a *arena, i int) (Detail, error) {
		// A worker's ring is single-writer: its arena machines run on the
		// worker's goroutine, so their pipeline events interleave with the
		// injection markers safely.
		wcfg := cfg.Experiment
		var ring *obs.Ring
		if cfg.Tracer != nil {
			ring = cfg.Tracer.Ring(fmt.Sprintf("fault-worker-%d", a.worker))
			wcfg.Pipeline.Trace = ring
		}
		inj := injections[i]
		ring.Emit(obs.EvInjectStart, inj.DecodeIndex, int64(inj.Bit))
		d, err := runOne(oracle, wcfg, inj, rc, a, &budgets[i])
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
		return d, err
	})
	if err != nil {
		return res, err
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
	return res, nil
}

// runPool runs job(a, i) for i in [0, n) on up to workers goroutines (0
// means GOMAXPROCS): the one worker pool every fault study shares. Each
// worker recycles machines through its own arena, and results land by
// index, so they are identical at any width; the lowest-index error wins.
func runPool[T any](prog *program.Program, workers, n int, job func(a *arena, i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := range min(workers, n) {
		wg.Add(1)
		go func(a *arena) {
			defer wg.Done()
			for i := range work {
				outs[i], errs[i] = job(a, i)
			}
		}(&arena{prog: prog, worker: w})
	}
	for i := range n {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return outs, fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return outs, nil
}
