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

// renamePasses returns the study's two passes, both starting cold.
func renamePasses(cfg Config) [2]renamePass {
	ext := cfg.pipelineConfig(core.ModeFull)
	ext.RenameITREnabled = true
	return [2]renamePass{{pcfg: cfg.pipelineConfig(core.ModeObserve)}, {pcfg: ext}}
}

// runRenameFault evaluates inj in both passes on a's machines, each run
// resuming from its pass's latest snapshot before the injected decode event.
func runRenameFault(a *arena, passes [2]renamePass, window int64, inj RenameInjection) (o renameOutcome, err error) {
	var cpus [2]*pipeline.CPU
	var curs [2]*goldenCursor
	for i, p := range passes {
		var snap *pipeline.Snapshot
		if cpus[i], snap, err = a.reset(p.pcfg, p.snaps.before(byDecode, inj.DecodeIndex)); err != nil {
			return o, fmt.Errorf("rename fault pass %d: %w", i+1, err)
		}
		curs[i] = a.attach(cpus[i], snap)
		cpus[i].SetRenameFaultHook(renameHook(inj))
		cpus[i].Run(window - cpus[i].CycleCount())
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

// RunRenameCampaign injects n randomized rename-index faults, drawn up front
// and run on the worker pool.
func RunRenameCampaign(prog *program.Program, cfg Config, n int, seed uint64) (RenameCampaignResult, error) {
	var res RenameCampaignResult
	if n <= 0 {
		return res, fmt.Errorf("rename campaign: non-positive count %d", n)
	}
	// A profiling run in pass 1's configuration measures the decode-event
	// space, as the main campaign's pilot does.
	passes := renamePasses(cfg)
	prof, err := pipeline.New(prog, passes[0].pcfg)
	if err != nil {
		return res, fmt.Errorf("rename profile: %w", err)
	}
	prof.Run(cfg.WindowCycles)
	space := prof.DecodeEvents()
	if space < 100 {
		return res, fmt.Errorf("rename campaign: window too small (%d decode events)", space)
	}

	rng := stats.NewRNG(seed)
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
	if cfg.EffectiveSnapshotInterval() > 0 {
		// One pilot per pass captures that pass's resume points; the two
		// run side by side on the pool.
		snaps, err := runPool(prog, newSlots(0), len(passes), func(_ *arena, i int) (snapSeries, error) {
			cpu, err := pipeline.New(prog, passes[i].pcfg)
			if err != nil {
				return nil, fmt.Errorf("rename pilot: %w", err)
			}
			return pilotAt(cpu, cfg.WindowCycles, points, false), nil
		})
		if err != nil {
			return res, err
		}
		passes[0].snaps, passes[1].snaps = snaps[0], snaps[1]
	}

	outs, err := runPool(prog, newSlots(0), n, func(a *arena, i int) (renameOutcome, error) {
		return runRenameFault(a, passes, cfg.WindowCycles, injs[i])
	})
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
