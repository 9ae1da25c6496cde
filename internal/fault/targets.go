package fault

import (
	"fmt"
	"math/bits"
	"sync"

	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/stats"
)

// ---- PC faults (paper Section 2.5) ----

// PCOutcome classifies one fetch-PC upset.
type PCOutcome string

// PC fault outcomes.
const (
	// PCDetectedITR: the disruption landed mid-trace, so the polluted
	// trace's signature mismatched in the ITR cache.
	PCDetectedITR PCOutcome = "itr"
	// PCDetectedBranch: the corrupted fetch path was repaired by normal
	// branch resolution (the execution unit checks predicted targets, the
	// protection the paper notes already exists for branch boundaries).
	PCDetectedBranch PCOutcome = "branch-repair"
	// PCDetectedSpc: the commit-PC (sequential PC) check caught a
	// discontinuity at a natural trace boundary.
	PCDetectedSpc PCOutcome = "spc"
	// PCUndetectedSDC: architectural state corrupted with no check firing
	// within the window — the Section 2.5 vulnerability.
	PCUndetectedSDC PCOutcome = "undetected-sdc"
	// PCMasked: no architectural corruption and no check fired.
	PCMasked PCOutcome = "masked"
	// PCDeadlock: the machine deadlocked and only the watchdog caught it.
	PCDeadlock PCOutcome = "wdog"
)

// PCOutcomes lists the classes in report order.
func PCOutcomes() []PCOutcome {
	return []PCOutcome{PCDetectedITR, PCDetectedBranch, PCDetectedSpc, PCUndetectedSDC, PCMasked, PCDeadlock}
}

// PCFaultResult aggregates a PC-fault campaign.
type PCFaultResult struct {
	Total  int
	Counts map[PCOutcome]int
}

// Pct returns the percentage of injections with outcome o.
func (r PCFaultResult) Pct(o PCOutcome) float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Counts[o]) / float64(r.Total)
}

// pcFault is one fetch-PC upset: flip bit at the first fetch at or after
// cycle.
type pcFault struct {
	cycle int64
	bit   int
}

// pcStudy is a PC-fault campaign's shared state. Its observe-mode pilot is
// also the clean reference run: a faulty run counts as branch-repaired only
// with more mispredicts than the pilot's fault-free window.
type pcStudy struct {
	sideStudy
	pcfg  pipeline.Config
	snaps snapSeries

	pilot   *pipeline.CPU // stopped at the last resume point
	refOnce sync.Once
	ref     pipeline.Result
}

// newPCStudy runs the pilot up to the last fault, capturing a resume point
// just before each fault unless snapshots are disabled.
func newPCStudy(prog *program.Program, cfg Config, faults []pcFault) (*pcStudy, error) {
	st := &pcStudy{sideStudy: newSideStudy(prog, cfg), pcfg: cfg.pipelineConfig(core.ModeObserve)}
	pilot, err := pipeline.New(prog, st.pcfg)
	if err != nil {
		return nil, fmt.Errorf("pc fault pilot: %w", err)
	}
	if cfg.EffectiveSnapshotInterval() > 0 {
		points := make([]int64, len(faults))
		for i, f := range faults {
			points[i] = f.cycle
		}
		st.snaps = pilotAt(pilot, st.window, points, true)
	}
	st.pilot = pilot
	return st, nil
}

// reference returns the fault-free Result over the window. Only an
// undiverged, undetected run reads it, so the pilot runs on to the
// window's end on the first such run, not up front.
func (s *pcStudy) reference() pipeline.Result {
	s.refOnce.Do(func() { s.ref = s.pilot.Run(s.window - s.pilot.CycleCount()) })
	return s.ref
}

// run injects f, the study's i-th fault, resuming from the latest snapshot
// before the fault cycle, and stops once the decided-outcome engine settles
// the class (see settleRule.pcFault). The fault is scheduled after the
// restore, which overwrites the machine's PC-fault schedule.
func (s *pcStudy) run(a *arena, i int, f pcFault) (PCOutcome, error) {
	cpu, snap, err := a.reset(s.pcfg, s.snaps.before(byCycle, f.cycle))
	if err != nil {
		return "", fmt.Errorf("pc fault run: %w", err)
	}
	cur := a.attach(cpu, snap)
	cpu.SchedulePCFault(f.cycle, f.bit)
	res := s.decide(i, cpu, cur, snap, settleRule{pcFault: true}, s.window)

	switch {
	case cpu.Detector().Base().Mismatches() > 0:
		return PCDetectedITR, nil
	case res.Termination == pipeline.TermDeadlock:
		return PCDeadlock, nil
	case res.SpcFired > 0:
		return PCDetectedSpc, nil
	case !cur.diverged && res.Mispredicts > s.reference().Mispredicts:
		// Extra repair events relative to the fault-free run: the branch
		// unit redirected the corrupted path and no damage remains.
		return PCDetectedBranch, nil
	case cur.diverged:
		return PCUndetectedSDC, nil
	default:
		return PCMasked, nil
	}
}

// RunPCFaultStudy injects n randomized PC faults drawn from cc.Seed, each
// run under cc.Experiment on a cc.Workers-wide pool, and publishes the runs'
// accounting to cc.Progress.
func RunPCFaultStudy(prog *program.Program, cc CampaignConfig, n int) (PCFaultResult, error) {
	outs, err := pcOutcomes(prog, cc, n)
	if err != nil {
		return tallyPC(nil), err
	}
	return tallyPC(outs), nil
}

// tallyPC aggregates a PC study's per-injection outcomes.
func tallyPC(outs []PCOutcome) PCFaultResult {
	res := PCFaultResult{Counts: make(map[PCOutcome]int)}
	for _, out := range outs {
		res.Total++
		res.Counts[out]++
	}
	return res
}

// RunPCFaultCampaign is RunPCFaultStudy at seed, GOMAXPROCS wide, without
// telemetry.
func RunPCFaultCampaign(prog *program.Program, cfg Config, n int, seed uint64) (PCFaultResult, error) {
	return RunPCFaultStudy(prog, CampaignConfig{Experiment: cfg, Seed: seed}, n)
}

// pcOutcomes draws RunPCFaultStudy's faults up front and returns each
// one's outcome, in draw order.
func pcOutcomes(prog *program.Program, cc CampaignConfig, n int) ([]PCOutcome, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pc fault campaign: non-positive count %d", n)
	}
	cfg := cc.Experiment
	rng := stats.NewRNG(cc.Seed)
	// Flips within the image dominate; one extra bit allows out-of-image
	// excursions (fetching past the image returns halts).
	bitRange := bits.Len64(uint64(prog.Len())) + 1
	faults := make([]pcFault, n)
	for i := range faults {
		faults[i].bit = rng.Intn(bitRange)
		faults[i].cycle = 1 + int64(rng.Uint64n(uint64(cfg.WindowCycles/2)))
	}
	st, err := newPCStudy(prog, cfg, faults)
	if err != nil {
		return nil, err
	}
	st.progress, st.jitter = cc.Progress, cc.jitter
	return runPool(prog, cc.Workers, n, nil, func(a *arena, i int) (PCOutcome, error) { return st.run(a, i, faults[i]) })
}

// ---- ITR cache line faults (paper Section 2.4) ----

// CacheFaultOutcome classifies an upset on a stored ITR signature.
type CacheFaultOutcome string

// Cache fault outcomes.
const (
	// CacheFalseMachineCheck: without parity, the corrupted line's next
	// hit mismatches twice and raises a machine check even though the
	// program is fine (the false abort the paper describes).
	CacheFalseMachineCheck CacheFaultOutcome = "false-machine-check"
	// CacheParityRepaired: parity identified the line fault; the line was
	// repaired with the freshly generated signature and execution
	// continued (Section 2.4's fix).
	CacheParityRepaired CacheFaultOutcome = "parity-repaired"
	// CacheMasked: the corrupted line was evicted or overwritten before
	// any instance referenced it.
	CacheMasked CacheFaultOutcome = "masked"
)

// CacheFaultResult aggregates an ITR-cache fault campaign.
type CacheFaultResult struct {
	Total  int
	Counts map[CacheFaultOutcome]int
	// SDC counts runs where architectural state diverged (should stay 0:
	// ITR cache faults never corrupt the program, they can only abort it).
	SDC int
}

// cacheStudy is an ITR-cache fault campaign's shared state: one parity
// setting's machine configuration and, unless snapshots are disabled, the
// warm machine every injection resumes from.
type cacheStudy struct {
	sideStudy
	pcfg       pipeline.Config
	warmCycles int64
	warm       *pipeline.Snapshot
}

func newCacheStudy(prog *program.Program, cfg Config, parity bool, warmCycles int64) (*cacheStudy, error) {
	if name := detect.Canonical(cfg.Pipeline.Detector); name != detect.NameITR {
		return nil, fmt.Errorf("cache fault study targets the ITR signature cache; detector backend %q has none", name)
	}
	st := &cacheStudy{sideStudy: newSideStudy(prog, cfg), pcfg: cfg.pipelineConfig(core.ModeFull), warmCycles: warmCycles}
	st.pcfg.ITR.Parity = parity
	if cfg.EffectiveSnapshotInterval() > 0 {
		pilot, err := pipeline.New(prog, st.pcfg)
		if err != nil {
			return nil, fmt.Errorf("cache fault pilot: %w", err)
		}
		pilot.Run(warmCycles)
		st.warm = pilot.Snapshot()
	}
	return st, nil
}

// cacheFault is one stored-signature upset: flip bit of the pick-th resident
// line (mod the resident count) once the cache is warm.
type cacheFault struct {
	pick uint64
	bit  int
}

// cacheOutcome is one cache fault's verdict; sdc reports whether
// architectural state diverged.
type cacheOutcome struct {
	out CacheFaultOutcome
	sdc bool
}

// run injects f, the study's i-th fault, once the cache is warm and
// observes the window that follows, stopping once the decided-outcome engine
// settles the outcome: every decode is faithful, so the run is final once no
// resident line disagrees with the oracle, the checker has settled and the
// machine has provably re-converged (or diverged, which is sticky).
func (s *cacheStudy) run(a *arena, i int, f cacheFault) (cacheOutcome, error) {
	cpu, snap, err := a.reset(s.pcfg, s.warm)
	if err != nil {
		return cacheOutcome{}, fmt.Errorf("cache fault run: %w", err)
	}
	cur := a.attach(cpu, snap)
	if s.warm == nil {
		cpu.Run(s.warmCycles)
	}
	var lines []*cache.Line
	cpu.Checker().Cache().Visit(func(ln *cache.Line) { lines = append(lines, ln) })
	if len(lines) == 0 {
		return cacheOutcome{}, fmt.Errorf("cache fault: no resident lines after %d warm cycles", s.warmCycles)
	}
	lines[f.pick%uint64(len(lines))].Value ^= 1 << uint(f.bit&63)

	res := s.decide(i, cpu, cur, snap, settleRule{horizon: cpu.DecodeEvents(), full: true}, cpu.CycleCount()+s.window)
	out := CacheMasked
	switch {
	case cpu.Checker().Stats().ParityRecovers > 0:
		out = CacheParityRepaired
	case res.Termination == pipeline.TermMachineCheck:
		out = CacheFalseMachineCheck
	}
	return cacheOutcome{out, cur.diverged}, nil
}

// cacheWarmCycles is the warm-up before a randomized cache fault: a quarter
// of the window, at least 1000 cycles.
func cacheWarmCycles(cfg Config) int64 { return max(cfg.WindowCycles/4, 1000) }

// RunCacheFaultStudy injects n randomized ITR-cache line faults drawn from
// cc.Seed, each run under cc.Experiment with the given parity setting on a
// cc.Workers-wide pool, and publishes the runs' accounting to cc.Progress.
func RunCacheFaultStudy(prog *program.Program, cc CampaignConfig, parity bool, n int) (CacheFaultResult, error) {
	outs, err := cacheOutcomes(prog, cc, parity, n)
	if err != nil {
		return tallyCache(nil), err
	}
	return tallyCache(outs), nil
}

// tallyCache aggregates an ITR-cache study's per-injection outcomes.
func tallyCache(outs []cacheOutcome) CacheFaultResult {
	res := CacheFaultResult{Counts: make(map[CacheFaultOutcome]int)}
	for _, o := range outs {
		res.Total++
		res.Counts[o.out]++
		if o.sdc {
			res.SDC++
		}
	}
	return res
}

// RunCacheFaultCampaign is RunCacheFaultStudy at seed, GOMAXPROCS wide,
// without telemetry.
func RunCacheFaultCampaign(prog *program.Program, cfg Config, parity bool, n int, seed uint64) (CacheFaultResult, error) {
	return RunCacheFaultStudy(prog, CampaignConfig{Experiment: cfg, Seed: seed}, parity, n)
}

// cacheOutcomes draws RunCacheFaultStudy's faults up front and returns each
// one's outcome, in draw order.
func cacheOutcomes(prog *program.Program, cc CampaignConfig, parity bool, n int) ([]cacheOutcome, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cache fault campaign: non-positive count %d", n)
	}
	rng := stats.NewRNG(cc.Seed)
	faults := make([]cacheFault, n)
	for i := range faults {
		faults[i].pick = rng.Uint64()
		faults[i].bit = rng.Intn(64)
	}
	st, err := newCacheStudy(prog, cc.Experiment, parity, cacheWarmCycles(cc.Experiment))
	if err != nil {
		return nil, err
	}
	st.progress, st.jitter = cc.Progress, cc.jitter
	return runPool(prog, cc.Workers, n, nil, func(a *arena, i int) (cacheOutcome, error) { return st.run(a, i, faults[i]) })
}
