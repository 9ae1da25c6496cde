package fault

import (
	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// The decided-outcome engine: stop each injection run as soon as its Figure 8
// classification is information-theoretically settled instead of simulating
// the remainder of the observation window.
//
// The argument rests on one structural property of the fault model: exactly
// one decode event is corrupted, so once every pipeline structure that ever
// held the corrupted signals has drained, all *future* decodes are faithful.
// From that point the machine is a correct implementation of the ISA over
// whatever architectural state it reached, and each classification fact
// either is already final or is provable final:
//
//   - Deadlock: the watchdog can only starve while a corrupted uop stalls the
//     ROB (a faithful decode never yields an unsatisfiable resource — see
//     isa sweep tests). A stalled corrupted uop keeps the drain condition
//     false, so the probe loop keeps simulating until the watchdog actually
//     fires; after drain, no deadlock can occur.
//   - SpcFired: the sequential-PC check fires at most one commit after a
//     corrupted control commit; one clean commit past the drain point
//     settles it.
//   - NaturalSDC: the golden cursor is sticky once diverged. While clean,
//     convergence is *proved* (not assumed) by comparing the cursor's
//     shadow — a fault-free execution from the run's own start snapshot,
//     advanced commit by commit — with the machine's full architectural
//     state, memory included.
//   - Detected/latency: detection events are append-only; for runs with none
//     yet, the backend's Settled contract plus (for ITR) a sweep of the
//     signature cache against the oracle rules out future events.
//
// Anything the proof cannot establish falls back to simulating the rest of
// the window, so the fast path is never less sound than the exact one. The
// exact path (Config.Exact) is the same engine with its early exits switched
// off: the run simulates its whole window.
const (
	// decideProbeCycles is the simulation chunk between decision probes.
	// Small enough that a settled run stops within ~1% of the paper's
	// window, large enough that probe overhead (a handful of counter reads,
	// usually) vanishes against simulation cost.
	decideProbeCycles = 512

	// preFaultMargin is how many decode events before the injection the
	// observe run pauses to capture the verify run's fork point. It must
	// exceed the maximum decode events a single RunUntilDecode stopping
	// cycle can add (fetch width times the redundancy factor), so the
	// capture always lands strictly before the fault fires.
	preFaultMargin = 64

	// faultySweepBackoff throttles the ITR cache sweep while a faulty
	// signature is resident: the line can only stop blocking the decision
	// via eviction or detection, both rare, so re-auditing every probe
	// would waste the sweep's oracle lookups.
	faultySweepBackoff = 8
)

// probeCycles returns the length of the next chunk runDecided simulates
// before it probes again. Tests draw it at random instead: a sound settle
// rule decides every run the same however its probes fall.
var probeCycles = func() int64 { return decideProbeCycles }

// runBudget records one injection's simulation work for the campaign's
// cycles-saved accounting. It deliberately lives outside Detail so the
// decided-outcome engine never perturbs classification payloads.
type runBudget struct {
	simulated     int64 // cycles actually simulated (observe + verify)
	saved         int64 // window cycles skipped by deciding early or forking
	decidedEarly  bool  // observe run exited before its window
	verifyForked  bool  // verify run resumed from the observe pre-fault fork
	proofFallback bool  // a convergence proof failed; run went to completion
}

// ClassBudget is the per-category slice of Budget.
type ClassBudget struct {
	Simulated int64 `json:"simulated"`
	Saved     int64 `json:"saved"`
}

// Budget aggregates the decided-outcome engine's work accounting over a
// campaign: cycles actually simulated versus window cycles skipped, broken
// down by outcome class (SDCs settle fast — the cursor diverges and sticks —
// while masked faults pay for their convergence proof).
type Budget struct {
	CyclesSimulated int64
	CyclesSaved     int64
	DecidedEarly    int64 // injections whose observe run exited early
	VerifyForked    int64 // verify runs resumed from a pre-fault fork
	ProofFallbacks  int64 // convergence proofs that failed (ran to completion)
	ByClass         map[Category]ClassBudget
}

// add folds one injection's record into the campaign totals.
func (b *Budget) add(r runBudget, cat Category) {
	b.CyclesSimulated += r.simulated
	b.CyclesSaved += r.saved
	if r.decidedEarly {
		b.DecidedEarly++
	}
	if r.verifyForked {
		b.VerifyForked++
	}
	if r.proofFallback {
		b.ProofFallbacks++
	}
	if b.ByClass == nil {
		b.ByClass = make(map[Category]ClassBudget)
	}
	cb := b.ByClass[cat]
	cb.Simulated += r.simulated
	cb.Saved += r.saved
	b.ByClass[cat] = cb
}

// Merge folds another campaign's accounting into b.
func (b *Budget) Merge(o Budget) {
	b.CyclesSimulated += o.CyclesSimulated
	b.CyclesSaved += o.CyclesSaved
	b.DecidedEarly += o.DecidedEarly
	b.VerifyForked += o.VerifyForked
	b.ProofFallbacks += o.ProofFallbacks
	for cat, cb := range o.ByClass {
		if b.ByClass == nil {
			b.ByClass = make(map[Category]ClassBudget)
		}
		acc := b.ByClass[cat]
		acc.Simulated += cb.Simulated
		acc.Saved += cb.Saved
		b.ByClass[cat] = acc
	}
}

// settleRule is what one run's classifier reads, and so what runDecided
// must prove final before it stops the run.
type settleRule struct {
	// horizon is the last decode event that may carry the fault's
	// corruption. Everything decoded at or before an injection's horizon
	// may carry corrupted signals: the injected event itself, plus the
	// trace former's open partial trace, which folds the corrupted signals
	// into a trace event dispatched up to MaxTraceLen-1 decode events
	// later. A pcFault run learns its horizon when the flip fires.
	horizon int64
	// full selects the verify-run rules: the full protocol's retry and
	// machine-check machinery means even already-detected runs must wait
	// for the backend to settle before their recovery facts are final.
	full bool
	// pcFault selects the PC study's rules: the first detection decides
	// the run outright, since that class outranks every other; and a run
	// that has not diverged is never decided, since its class compares the
	// whole window's mispredicts with the fault-free pilot's.
	pcFault bool
	// renameSigs is the fault-free rename-signature oracle
	// (pipeline.RenameTraceSigs) the rename checker's cache is audited
	// against, for machines that carry one.
	renameSigs []uint64
	// exact switches early exits off: the run simulates its whole window
	// in one probe.
	exact bool
}

// decodeRule is the rule for a run whose fault corrupts decode event
// DecodeIndex's signals or rename indexes.
func decodeRule(decodeIndex int64, full, exact bool) settleRule {
	return settleRule{horizon: decodeIndex + isa.MaxTraceLen, full: full, exact: exact}
}

// runDecided simulates cpu, restored to snap, in probe-sized chunks until
// the run's classification facts, as rule names them, are settled or the
// machine genuinely terminates. It returns the final cumulative Result
// exactly as a single cpu.Run of the whole window would (chunked stepping
// is trajectory-identical and the Result counters are cumulative), and
// whether the run exited early. window is the cycle count the run ends at.
// bud receives the cycles simulated since snap, the window cycles an early
// exit skipped, and any failed convergence proof.
func runDecided(cpu *pipeline.CPU, cur *goldenCursor, snap *pipeline.Snapshot, oracle *SigOracle, rule settleRule, window int64, bud *runBudget) (res pipeline.Result, early bool) {
	defer func() {
		bud.simulated += cpu.CycleCount() - snap.Cycle
		if early {
			bud.saved += window - cpu.CycleCount()
		}
	}()
	horizon, known := rule.horizon, !rule.pcFault
	cleanCommit := int64(-1)
	sweepHold := 0
	for {
		probe := window
		if !rule.exact {
			probe = probeCycles()
		}
		res = cpu.Run(max(min(window-cpu.CycleCount(), probe), 0))
		if res.Termination != pipeline.TermBudget || cpu.CycleCount() >= window {
			return res, false
		}
		d := cpu.Detector()
		if rule.pcFault {
			if d.Stats().Mismatches > 0 {
				return res, true
			}
			if !known {
				// The flip corrupts the trace it lands in, which ends at
				// most MaxTraceLen instructions, none taking more than
				// MaxDecodesPerCycle decode events, after the first
				// instruction fetched through the flipped PC. The bound on
				// that instruction is read at the first probe after the
				// flip, so it may overshoot by up to one probe of decodes.
				mark, fired := cpu.PCFaultDecode()
				if !fired {
					continue
				}
				horizon, known = mark+isa.MaxTraceLen*cpu.MaxDecodesPerCycle(), true
			}
		}
		// Phase 0 — drain: wait until no structure can still hold corrupted
		// decode signals. A corrupted uop stalling forever keeps us here
		// until the watchdog terminates the run, which is the sound outcome.
		if cleanCommit < 0 {
			if cpu.DecodeEvents() <= horizon {
				continue
			}
			if oldest, ok := cpu.OldestInFlightDecode(); ok && oldest <= horizon {
				continue
			}
			cleanCommit = cpu.CommittedInsts()
			continue
		}
		// Phase 1 — one clean commit past the drain point settles the
		// sequential-PC check (a corrupted control commit can break the
		// expected-PC chain at exactly the next retirement) and gives the
		// golden cursor its final chance to diverge on taint-era state.
		if cpu.CommittedInsts() <= cleanCommit {
			continue
		}
		// Phase 2 — decide.
		diverged := cur.diverged
		if rule.pcFault && !diverged {
			continue
		}
		// Observe runs that already detected need no quiescence: detection
		// is monotone and observe mode never retries. Undetected runs — and
		// every full-protocol run, whose retry/machine-check resolution is
		// still in flight — must show the backend can produce no further
		// event, and (ITR only) that no faulty signature is resident to
		// seed one later. A rename checker, which only full-protocol runs
		// carry, must show the same of its own cache.
		if rule.full || d.Stats().Mismatches == 0 {
			rc := cpu.RenameChecker()
			if !d.Settled(cleanCommit, diverged) || rc != nil && !rc.Settled(cleanCommit, diverged) {
				continue
			}
			if sweepHold > 0 {
				sweepHold--
				continue
			}
			ck := cpu.Checker()
			if ck != nil && faultyResident(ck, oracle.TrueSig) || rc != nil && faultyResident(rc, rule.renameSig) {
				sweepHold = faultySweepBackoff - 1
				continue
			}
		}
		if !diverged {
			// The cursor never flagged a divergence; prove the machine
			// actually re-converged with the golden execution, so all
			// future commits must match it. A failed proof means the
			// masked verdict is not yet safe: simulate the rest of the
			// window exactly.
			if !cur.converged(cpu) {
				bud.proofFallback = true
				if rest := window - cpu.CycleCount(); rest > 0 {
					res = cpu.Run(rest)
				}
				return res, false
			}
		}
		return res, true
	}
}

// sideStudy is what the PC, ITR-cache and rename studies' runs share: the
// observation window, the Exact switch, the signature oracle their ITR
// caches are audited against, and where their accounting goes.
type sideStudy struct {
	window   int64
	exact    bool
	oracle   *SigOracle
	progress *Progress
}

func newSideStudy(prog *program.Program, cfg Config) sideStudy {
	return sideStudy{window: cfg.WindowCycles, exact: cfg.Exact, oracle: NewSigOracle(prog)}
}

// decide runs one of the study's runs, restored to snap, through runDecided
// under rule until cycle end, and publishes its accounting from a's worker.
func (s *sideStudy) decide(a *arena, cpu *pipeline.CPU, cur *goldenCursor, snap *pipeline.Snapshot, rule settleRule, end int64) pipeline.Result {
	rule.exact = s.exact
	var bud runBudget
	res, early := runDecided(cpu, cur, snap, s.oracle, rule, end, &bud)
	if p := s.progress; p != nil {
		p.StudyRuns.AddAt(uint32(a.worker), 1)
		p.StudyCyclesSimulated.AddAt(uint32(a.worker), bud.simulated)
		if early {
			p.StudyRunsDecidedEarly.AddAt(uint32(a.worker), 1)
		}
	}
	return res
}

// renameSig returns the fault-free rename signature of the static trace
// starting at pc; every out-of-image pc shares the halt's entry.
func (r settleRule) renameSig(pc uint64) uint64 {
	return r.renameSigs[min(pc, uint64(len(r.renameSigs)-1))]
}

// preFault advances the observe machine, restored to snap, hook-free to just
// before the fault's decode event and captures the verify run's fork point
// there. The prefix is fault-free, so splitting the run is
// trajectory-invisible. It returns nil when the fault lands too close to
// snap for the fork to skip anything, or when the machine stops first.
func preFault(cpu *pipeline.CPU, snap *pipeline.Snapshot, inj Injection, window int64) *pipeline.Snapshot {
	stop := inj.DecodeIndex - preFaultMargin
	if stop <= snap.DecodeEvents {
		return nil
	}
	cpu.SetFaultHook(nil)
	res := cpu.RunUntilDecode(window-cpu.CycleCount(), stop)
	if res.Termination != pipeline.TermBudget || cpu.DecodeEvents() >= inj.DecodeIndex {
		return nil
	}
	return cpu.Snapshot()
}

// faultyResident reports whether any line of ck's signature cache holds a
// signature that disagrees with the fault-free trueSig — persistent
// corrupted evidence that a future faithful access could still trip over.
func faultyResident(ck *core.Checker, trueSig func(pc uint64) uint64) bool {
	faulty := false
	ck.Cache().Visit(func(ln *cache.Line) {
		if !faulty && ln.Value != trueSig(ln.Key) {
			faulty = true
		}
	})
	return faulty
}
