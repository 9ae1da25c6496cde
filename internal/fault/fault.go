// Package fault implements the paper's Section 4 fault-injection
// methodology: random single-bit flips on the decode signals of one dynamic
// instruction, comparison of the faulty simulator's commits against a
// fault-free golden shadow executed from the run's own resume snapshot, and
// classification of each injection into the ten outcome categories of
// Figure 8.
//
// Each injection is evaluated with two pipeline runs:
//
//   - an *observe* run (core.ModeObserve): ITR records detections but never
//     recovers, exposing the fault's natural outcome — silent data
//     corruption (SDC), deadlock (wdog), or masked — alongside whether and
//     how ITR would have detected it;
//   - an optional *verify* run (core.ModeFull): the complete protocol, used
//     to confirm that recoverable detections actually recover (flush and
//     restart) and unrecoverable ones raise machine checks.
package fault

import (
	"fmt"

	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// Category is one Figure 8 outcome class.
type Category string

// The ten Figure 8 categories, in the paper's legend order.
const (
	ITRMask    Category = "ITR+Mask"    // detected by ITR; fault architecturally masked
	ITRSDCD    Category = "ITR+SDC+D"   // detected; state corrupted; detection only
	ITRSDCR    Category = "ITR+SDC+R"   // detected; would have been SDC; recoverable
	ITRWdogR   Category = "ITR+wdog+R"  // detected; would have deadlocked; recovered
	MayITRMask Category = "MayITR+Mask" // undetected in window; faulty signature still cached
	MayITRSDC  Category = "MayITR+SDC"
	SpcSDC     Category = "spc+SDC" // caught only by the sequential-PC check
	UndetMask  Category = "Undet+Mask"
	UndetWdog  Category = "Undet+wdog"
	UndetSDC   Category = "Undet+SDC"
)

// Categories lists all outcome classes in the paper's legend order.
func Categories() []Category {
	return []Category{
		UndetSDC, UndetWdog, UndetMask, SpcSDC,
		MayITRSDC, MayITRMask,
		ITRWdogR, ITRSDCR, ITRSDCD, ITRMask,
	}
}

// Injection names a single-event upset: flip Bit of the packed decode-signal
// word of decode event DecodeIndex (Table 2 fault model).
type Injection struct {
	DecodeIndex int64
	Bit         int
}

// Field returns the Table 2 field the injection lands in.
func (in Injection) Field() string { return isa.SignalField(in.Bit) }

// Detail carries everything observed for one injection.
type Detail struct {
	Injection Injection
	Category  Category

	// Observe-run facts.
	Detected    bool
	Recoverable bool // the mismatching access was the faulty instance
	NaturalSDC  bool
	Deadlock    bool
	SpcFired    bool
	// FaultyResident: a faulty signature is still in the ITR cache at
	// window end. Only undetected runs record it, the only runs classify
	// reads it for.
	FaultyResident bool

	// Detection latency (observe run): machine time from the injection's
	// decode event to the backend's first detection, in pipeline cycles
	// and committed instructions (the trace length the fault survived).
	// Both are -1 when the fault went undetected.
	LatencyCycles int64
	LatencyInsts  int64

	// Verify-run facts (zero value when verification is disabled).
	Verified        bool
	RecoveredInFull bool // full protocol recovered (retry matched)
	MachineCheck    bool // full protocol aborted the program
	SDCUnderITR     bool // state still corrupted despite full protocol
	// CheckpointRecovered: the verify run converted a machine check into a
	// coarse-grain checkpoint rollback and the golden shadow stayed
	// clean afterwards (Section 2.3 extension).
	CheckpointRecovered bool
}

// SigOracle answers "which side of a mismatch was faulty" with the
// fault-free signature of each static trace, read from the program's
// DecodeTable.
type SigOracle struct {
	tab *program.DecodeTable
}

// NewSigOracle builds an oracle for prog.
func NewSigOracle(prog *program.Program) *SigOracle {
	return &SigOracle{tab: prog.DecodeTable()}
}

// TrueSig returns the fault-free signature of the static trace starting at
// pc (DecodeTable.TraceSig).
func (o *SigOracle) TrueSig(pc uint64) uint64 { return o.tab.TraceSig(pc) }

// DefaultSnapshotInterval is the decode-event spacing of pilot snapshots
// when Config.SnapshotInterval is zero. Smaller intervals skip more of the
// fault-free prefix per injection at the cost of more pilot snapshots held
// in memory. Captures are copy-on-write (pages shared, machine state deep),
// so the spacing is tuned for the resume gap — an injection re-simulates
// half the interval on average before its fault fires — not capture cost.
const DefaultSnapshotInterval = 2048

// Config parameterizes a single-injection experiment.
type Config struct {
	ITR          core.Config
	Pipeline     pipeline.Config // ITR fields are overridden per run
	WindowCycles int64           // observation window (paper: 1M cycles)
	Verify       bool            // run the full-protocol confirmation pass
	// Checkpoint enables the Section 2.3 coarse-grain checkpointing
	// extension in the verify run, upgrading detection-only machine checks
	// into rollbacks when the corruption postdates the last checkpoint.
	Checkpoint bool
	// SnapshotInterval controls the campaign's snapshot fast-forward: the
	// fault-free pilot drops a resumable machine snapshot every
	// SnapshotInterval decode events, and each injection resumes from the
	// nearest snapshot before its fault point instead of re-simulating the
	// shared prefix. 0 means DefaultSnapshotInterval; negative disables the
	// fast path entirely (every run starts cold). Results are bit-identical
	// either way. EffectiveSnapshotInterval resolves the semantics.
	SnapshotInterval int64
	// Exact switches off the decided-outcome engine's early exits and its
	// pre-fault verify fork, so every injection run — the campaign's and
	// the PC, cache and rename studies' — simulates its full observation
	// window: the reference path. The default (false) lets each run stop
	// as soon as its classification is settled. Details and study outcomes
	// are equal either way; only the cycle accounting differs.
	Exact bool
}

// EffectiveSnapshotInterval resolves the SnapshotInterval convention in one
// place (flag help, campaign, and manifest all defer to it): zero maps to
// DefaultSnapshotInterval, a negative value disables the fast path and
// resolves to 0, and a positive value is used as-is.
func (c Config) EffectiveSnapshotInterval() int64 {
	switch {
	case c.SnapshotInterval == 0:
		return DefaultSnapshotInterval
	case c.SnapshotInterval < 0:
		return 0
	default:
		return c.SnapshotInterval
	}
}

// pipelineConfig returns the study's pipeline configuration with the
// detection backend enabled in the given mode. Every machine the fault
// studies build goes through here — observe and verify runs, campaign
// pilots, profiling passes — so the backend selection riding in
// Config.Pipeline (Detector, DetectorOpts) reaches all of them identically,
// and the ITR-field overriding lives in exactly one place.
func (c Config) pipelineConfig(mode core.Mode) pipeline.Config {
	pcfg := c.Pipeline
	pcfg.ITREnabled = true
	pcfg.ITR = c.ITR
	pcfg.ITRMode = mode
	return pcfg
}

// DefaultConfig mirrors the paper's Section 4 setup (two-way 1024-signature
// ITR cache) with a window scaled for quick runs; raise WindowCycles to 1M
// for paper-fidelity campaigns.
func DefaultConfig() Config {
	return Config{
		ITR:          core.DefaultConfig(),
		Pipeline:     pipeline.DefaultConfig(),
		WindowCycles: 250_000,
		Verify:       true,
	}
}

// RunOne performs one injection experiment and classifies it, simulating
// from cycle 0 (the cold path; campaigns resume from pilot snapshots via
// RunCampaign).
func RunOne(prog *program.Program, oracle *SigOracle, cfg Config, inj Injection) (Detail, error) {
	return runOne(oracle, cfg, inj, nil, &arena{prog: prog}, &runBudget{})
}

// arena is one pool worker's reusable machines, one per configuration.
// Building a pipeline allocates every component a run touches — slot
// columns, predictor tables, ITR cache and ROB, fetch queue — so building
// fresh machines per injection spent a visible slice of a study's time and
// almost all of its allocations on setup that Restore makes redundant:
// restoring a snapshot (a pilot resume point, or the machine's own cycle-0
// image for a cold start) rewrites the complete mutable state in place,
// bit-identically.
//
// An arena is single-threaded. Its CPUs carry whatever hooks and observers
// the previous run installed, so every run (re)sets each hook it depends on.
type arena struct {
	prog   *program.Program
	worker int
	cpus   map[pipeline.Config]*arenaCPU
}

type arenaCPU struct {
	cpu  *pipeline.CPU
	zero *pipeline.Snapshot // the CPU's pristine cycle-0 image
}

// reset returns the arena's CPU for pcfg restored to snap, or to its cycle-0
// image when snap is nil, building the CPU on first use. It also returns the
// snapshot it restored, so every run has a start point for the
// decided-outcome engine.
func (a *arena) reset(pcfg pipeline.Config, snap *pipeline.Snapshot) (*pipeline.CPU, *pipeline.Snapshot, error) {
	m := a.cpus[pcfg]
	if m == nil {
		cpu, err := pipeline.New(a.prog, pcfg)
		if err != nil {
			return nil, nil, err
		}
		m = &arenaCPU{cpu, cpu.Snapshot()}
		if a.cpus == nil {
			a.cpus = make(map[pipeline.Config]*arenaCPU)
		}
		a.cpus[pcfg] = m
	}
	if snap == nil {
		snap = m.zero
	}
	return m.cpu, snap, m.cpu.Restore(snap)
}

// runOne performs one injection experiment and classifies it. Both the
// observe and the verify run start from a snapshot taken before the
// injection's decode event — the latest pilot snapshot in snaps, or the
// machine's cycle-0 image when none precedes it — and their golden cursors'
// shadows start from that snapshot's committed state. The resumed
// trajectory is bit-identical to a cold one: the snapshot captures the
// complete machine state and the fault fires strictly after it.
//
// Each run is one call into the decided-outcome engine (see decide.go),
// which stops it as soon as its classification is settled unless cfg.Exact
// is set. Outside exact mode, a verify run forks from a pre-fault capture of
// the observe machine instead of re-simulating the detect-free prefix. bud
// receives the run's simulated/saved cycle accounting.
func runOne(oracle *SigOracle, cfg Config, inj Injection, snaps snapSeries, ar *arena, bud *runBudget) (Detail, error) {
	det := Detail{Injection: inj, LatencyCycles: -1, LatencyInsts: -1}
	from := snaps.before(byDecode, inj.DecodeIndex)

	// ---- observe run: natural outcome + detection facts ----
	cpu, snap, err := ar.reset(cfg.pipelineConfig(core.ModeObserve), from)
	if err != nil {
		return det, fmt.Errorf("observe run: %w", err)
	}
	cur := ar.attach(cpu, snap)
	var presnap *pipeline.Snapshot
	if cfg.Verify && !cfg.Checkpoint && !cfg.Exact {
		presnap = preFault(cpu, snap, inj, cfg.WindowCycles)
	}
	var injPt injectionPoint
	cpu.SetFaultHook(hook(inj, cpu, &injPt))
	res, early := runDecided(cpu, cur, snap, oracle, decodeRule(inj.DecodeIndex, false, cfg.Exact), cfg.WindowCycles, bud)
	bud.decidedEarly = early

	det.NaturalSDC = cur.diverged
	det.Deadlock = res.Termination == pipeline.TermDeadlock
	det.SpcFired = res.SpcFired > 0

	detections := cpu.Detector().Detections()
	det.Detected = len(detections) > 0
	if stamps := cpu.DetectionStamps(); det.Detected && injPt.fired && len(stamps) > 0 {
		// Stamps were reset at the Restore and the snapshot's prefix is
		// fault-free, so the first stamp is the first detection.
		det.LatencyCycles = stamps[0].Cycle - injPt.cycle
		det.LatencyInsts = stamps[0].Committed - injPt.committed
	}
	if det.Detected && detect.PreCommit(cfg.Pipeline.Detector) {
		// Recoverability only exists for backends that detect before the
		// faulty instance commits: a chunked-replay verdict arrives after
		// retirement, so a flush-and-retry can never help it.
		first := detections[0]
		det.Recoverable = first.AccessSig != oracle.TrueSig(first.StartPC)
	}
	// MayITR: a faulty signature resident at window end (paper footnote 1).
	// The category is ITR-specific — rival backends hold no signature cache,
	// so an undetected fault of theirs classifies as plain Undet.
	if ck := cpu.Checker(); ck != nil && !det.Detected {
		det.FaultyResident = faultyResident(ck, oracle.TrueSig)
	}

	det.Category = classify(det)

	// ---- verify run: confirm the recovery story under the full protocol ----
	if cfg.Verify && det.Detected {
		// Under checkpointing the verify run starts cold and simulates its
		// whole window: a cold run takes coarse-grain checkpoints during the
		// prefix, which the checkpoint-free pilot snapshot cannot reproduce,
		// and the decided engine's exits are not validated against
		// checkpoint rollbacks. Otherwise it resumes from the observe
		// machine's pre-fault fork when one was captured, skipping the
		// detect-free prefix between the pilot snapshot and the injection.
		vfrom := from
		if cfg.Checkpoint {
			vfrom = nil
		} else if presnap != nil {
			vfrom = presnap
		}
		vcfg := cfg.pipelineConfig(core.ModeFull)
		vcfg.CheckpointEnabled = cfg.Checkpoint
		vcpu, vsnap, err := ar.reset(vcfg, vfrom)
		if err != nil {
			return det, fmt.Errorf("verify run: %w", err)
		}
		vcur := ar.attach(vcpu, vsnap)
		if cfg.Checkpoint {
			vcpu.SetCheckpointObserver(vcur.checkpoint)
		}
		var vinjPt injectionPoint
		vcpu.SetFaultHook(hook(inj, vcpu, &vinjPt))
		vres, _ := runDecided(vcpu, vcur, vsnap, oracle, decodeRule(inj.DecodeIndex, true, cfg.Exact || cfg.Checkpoint), cfg.WindowCycles, bud)
		if presnap != nil {
			// The fork skipped re-simulating snap.Cycle→presnap.Cycle.
			bud.saved += presnap.Cycle - snap.Cycle
			bud.verifyForked = true
		}
		det.Verified = true
		det.RecoveredInFull = vcpu.Detector().Stats().Recoveries > 0
		det.MachineCheck = vres.Termination == pipeline.TermMachineCheck
		det.SDCUnderITR = vcur.diverged
		det.CheckpointRecovered = cfg.Checkpoint && vres.CheckpointRollbacks > 0 &&
			!det.MachineCheck && !vcur.diverged
	}
	return det, nil
}

// injectionPoint records the machine time at which the fault hook fired:
// the cycle and committed-instruction counts when the bit was flipped.
// Detection latency is the first detection stamp minus this point.
type injectionPoint struct {
	fired     bool
	cycle     int64
	committed int64
}

// hook returns a FaultHook flipping the injection's bit exactly once,
// recording the flip's machine time in at. After the flip it uninstalls
// itself from cpu — the remainder of the window (the vast majority of its
// decode events) runs hook-free. An installed-but-fired hook would return
// every later instruction's signals unchanged, so clearing it is
// behaviorally invisible.
func hook(inj Injection, cpu *pipeline.CPU, at *injectionPoint) pipeline.FaultHook {
	return func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		if !at.fired && i == inj.DecodeIndex {
			at.fired = true
			at.cycle = cpu.CycleCount()
			at.committed = cpu.CommittedInsts()
			cpu.SetFaultHook(nil)
			return d.FlipBit(inj.Bit)
		}
		return d
	}
}

// classify maps observed facts to the Figure 8 category.
func classify(d Detail) Category {
	switch {
	case d.Detected && d.Deadlock:
		return ITRWdogR
	case d.Detected && d.NaturalSDC && d.Recoverable:
		return ITRSDCR
	case d.Detected && d.NaturalSDC:
		return ITRSDCD
	case d.Detected:
		return ITRMask
	case d.FaultyResident && d.NaturalSDC:
		return MayITRSDC
	case d.FaultyResident:
		return MayITRMask
	case d.SpcFired && d.NaturalSDC:
		return SpcSDC
	case d.NaturalSDC:
		return UndetSDC
	case d.Deadlock:
		return UndetWdog
	default:
		return UndetMask
	}
}
