package fault

import (
	"fmt"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/stats"
)

// isaRegID aliases the register type for brevity in the hook.
func isaRegID(v uint8) isa.RegID { return isa.RegID(v) }

// RenameInjection names a single-event upset on the rename-map index logic:
// XOR the chosen index of decode event DecodeIndex with Mask.
type RenameInjection struct {
	DecodeIndex int64
	Operand     int   // 0 = src1, 1 = src2, 2 = dst
	Mask        uint8 // non-zero, 5 bits
}

// RenameCampaignResult quantifies the rename-protection extension: how many
// rename-unit faults the frontend signature misses, and how many the rename
// signature detects and recovers.
type RenameCampaignResult struct {
	Total int
	// Without the extension (frontend ITR only):
	SDCWithoutExtension int // architectural corruption, undetected
	MaskedWithout       int
	FrontendDetected    int // should stay 0: the signals are uncorrupted
	// With the extension:
	DetectedWithExtension  int
	RecoveredWithExtension int
	SDCWithExtension       int // corruption that still slipped through
}

// Pct helpers.
func (r RenameCampaignResult) pct(n int) float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(r.Total)
}

// SDCWithoutPct returns the silent-corruption rate with only frontend ITR.
func (r RenameCampaignResult) SDCWithoutPct() float64 { return r.pct(r.SDCWithoutExtension) }

// DetectedPct returns the detection rate with the rename extension.
func (r RenameCampaignResult) DetectedPct() float64 { return r.pct(r.DetectedWithExtension) }

// renameHook builds the one-shot index corruption.
func renameHook(inj RenameInjection) pipeline.RenameFaultHook {
	done := false
	return func(i int64, ri pipeline.RenameIndexes) pipeline.RenameIndexes {
		if done || i != inj.DecodeIndex {
			return ri
		}
		done = true
		m := inj.Mask & 0x1f
		if m == 0 {
			m = 1
		}
		switch inj.Operand % 3 {
		case 0:
			ri.Src1 ^= isaRegID(m)
		case 1:
			ri.Src2 ^= isaRegID(m)
		default:
			ri.Dst ^= isaRegID(m)
		}
		return ri
	}
}

// renamePass is one of the rename study's two passes: frontend ITR only in
// observe mode (the paper's baseline), or the rename extension attached
// under the full protocol. Restore requires matching configurations, so each
// pass resumes from its own pilot's snapshots.
type renamePass struct {
	pcfg  pipeline.Config
	snaps snapSeries
}

// renameStudy is a rename campaign's shared state: its two passes and the
// fault-free rename signatures pass 2's runs are decided against.
type renameStudy struct {
	sideStudy
	passes     [2]renamePass
	renameSigs []uint64 // pipeline.RenameTraceSigs
}

// newRenameStudy returns the study with both passes starting cold: no
// resume points yet.
func newRenameStudy(prog *program.Program, cfg Config) *renameStudy {
	ext := cfg.pipelineConfig(core.ModeFull)
	ext.RenameITREnabled = true
	return &renameStudy{
		sideStudy:  newSideStudy(prog, cfg),
		passes:     [2]renamePass{{pcfg: cfg.pipelineConfig(core.ModeObserve)}, {pcfg: ext}},
		renameSigs: pipeline.RenameTraceSigs(prog.DecodeTable()),
	}
}

// run evaluates inj in both passes on a's machines, each run resuming from
// its pass's latest snapshot before the injected decode event and stopping
// once the decided-outcome engine settles its facts: pass 1 under the
// observe rule, pass 2 under the full-protocol rule, which also audits the
// rename checker against the fault-free rename signatures.
func (s *renameStudy) run(a *arena, inj RenameInjection) (o renameOutcome, err error) {
	var cpus [2]*pipeline.CPU
	var curs [2]*goldenCursor
	for i, p := range s.passes {
		var snap *pipeline.Snapshot
		if cpus[i], snap, err = a.reset(p.pcfg, p.snaps.before(byDecode, inj.DecodeIndex)); err != nil {
			return o, fmt.Errorf("rename fault pass %d: %w", i+1, err)
		}
		curs[i] = a.attach(cpus[i], snap)
		cpus[i].SetRenameFaultHook(renameHook(inj))
		rule := decodeRule(inj.DecodeIndex, i == 1, s.exact)
		if i == 1 {
			rule.renameSigs = s.renameSigs
		}
		s.decide(a, cpus[i], curs[i], snap, rule, s.window)
	}
	rst := cpus[1].RenameChecker().Stats()
	return renameOutcome{
		withoutSDC:       curs[0].diverged,
		frontendDetected: len(cpus[0].Detector().Detections()) > 0,
		detected:         rst.Mismatches > 0,
		recovered:        rst.Recoveries > 0,
		withSDC:          curs[1].diverged,
	}, nil
}

// renameOutcome is one injection's verdicts from both passes.
type renameOutcome struct {
	withoutSDC, frontendDetected, detected, recovered, withSDC bool
}

// RunRenameStudy injects n randomized rename-index faults drawn from
// cc.Seed, each run in both passes under cc.Experiment on a cc.Workers-wide
// pool, and publishes the runs' accounting to cc.Progress.
func RunRenameStudy(prog *program.Program, cc CampaignConfig, n int) (RenameCampaignResult, error) {
	var res RenameCampaignResult
	outs, err := renameOutcomes(prog, cc, n)
	if err != nil {
		return res, err
	}
	for _, o := range outs {
		res.Total++
		if o.withoutSDC {
			res.SDCWithoutExtension++
		} else {
			res.MaskedWithout++
		}
		if o.frontendDetected {
			res.FrontendDetected++
		}
		if o.detected {
			res.DetectedWithExtension++
		}
		if o.recovered {
			res.RecoveredWithExtension++
		}
		if o.withSDC {
			res.SDCWithExtension++
		}
	}
	return res, nil
}

// RunRenameCampaign is RunRenameStudy at seed, GOMAXPROCS wide, without
// telemetry.
func RunRenameCampaign(prog *program.Program, cfg Config, n int, seed uint64) (RenameCampaignResult, error) {
	return RunRenameStudy(prog, CampaignConfig{Experiment: cfg, Seed: seed}, n)
}

// renameOutcomes draws RunRenameStudy's faults and returns each one's
// outcome, in draw order.
func renameOutcomes(prog *program.Program, cc CampaignConfig, n int) ([]renameOutcome, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rename campaign: non-positive count %d", n)
	}
	cfg := cc.Experiment
	st := newRenameStudy(prog, cfg)
	st.progress = cc.Progress
	// Pass 1's pilot measures the decode-event space, as the main
	// campaign's pilot does, capturing pass 1's resume points on the way.
	pilot, err := pipeline.New(prog, st.passes[0].pcfg)
	if err != nil {
		return nil, fmt.Errorf("rename pilot: %w", err)
	}
	interval := cfg.EffectiveSnapshotInterval()
	snaps := pilotSeries(pilot, cfg.WindowCycles, interval)
	space := pilot.DecodeEvents()
	if space < 100 {
		return nil, fmt.Errorf("rename campaign: window too small (%d decode events)", space)
	}

	rng := stats.NewRNG(cc.Seed)
	lo, hi := space/20, space/2
	injs := make([]RenameInjection, n)
	points := make([]int64, n)
	for i := range injs {
		injs[i] = RenameInjection{
			DecodeIndex: lo + int64(rng.Uint64n(uint64(hi-lo))),
			Operand:     rng.Intn(3),
			Mask:        uint8(1 + rng.Intn(31)),
		}
		points[i] = injs[i].DecodeIndex
	}
	st.passes[0].snaps = prune(snaps, points)
	if interval > 0 {
		// Restore rejects a configuration mismatch, so pass 2's pilot
		// captures its own resume points.
		ext, err := pipeline.New(prog, st.passes[1].pcfg)
		if err != nil {
			return nil, fmt.Errorf("rename pilot: %w", err)
		}
		st.passes[1].snaps = pilotAt(ext, cfg.WindowCycles, points, false)
	}
	return runPool(prog, cc.Workers, n, nil, func(a *arena, i int) (renameOutcome, error) { return st.run(a, injs[i]) })
}
