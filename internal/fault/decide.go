package fault

import (
	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
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
//     convergence is *proved* (not assumed) by replaying the golden outcome
//     log from the run's own start snapshot and comparing the full
//     architectural state, memory included, against the machine.
//   - Detected/latency: detection events are append-only; for runs with none
//     yet, the backend's Settled contract plus (for ITR) a sweep of the
//     signature cache against the oracle rules out future events.
//
// Anything the proof cannot establish falls back to simulating the rest of
// the window, so the fast path is never less sound than the exact one.
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

// runDecided simulates cpu in probe-sized chunks until the injection's
// classification facts are settled or the machine genuinely terminates.
// It returns the final cumulative Result exactly as a single cpu.Run of the
// whole window would (chunked stepping is trajectory-identical and the
// Result counters are cumulative), plus whether the run exited early and
// whether a convergence proof failed.
//
// full selects the verify-run rules: the full protocol's retry and
// machine-check machinery means even already-detected runs must wait for the
// backend to settle before their recovery facts are final.
func runDecided(cpu *pipeline.CPU, cur *goldenCursor, stream *GoldenStream, snap *pipeline.Snapshot, oracle *SigOracle, inj Injection, window int64, full bool) (res pipeline.Result, early, fellBack bool) {
	// Everything decoded at or before taintHorizon may carry corrupted
	// signals: the injected event itself, plus the trace former's open
	// partial trace, which folds the corrupted signals into a trace event
	// dispatched up to MaxTraceLen-1 decode events later.
	taintHorizon := inj.DecodeIndex + isa.MaxTraceLen
	cleanCommit := int64(-1)
	sweepHold := 0
	for {
		chunk := window - cpu.CycleCount()
		if chunk > decideProbeCycles {
			chunk = decideProbeCycles
		}
		if chunk < 0 {
			chunk = 0
		}
		res = cpu.Run(chunk)
		if res.Termination != pipeline.TermBudget || cpu.CycleCount() >= window {
			return res, false, false
		}
		// Phase 0 — drain: wait until no structure can still hold corrupted
		// decode signals. A corrupted uop stalling forever keeps us here
		// until the watchdog terminates the run, which is the sound outcome.
		if cleanCommit < 0 {
			if cpu.DecodeEvents() <= taintHorizon {
				continue
			}
			if oldest, ok := cpu.OldestInFlightDecode(); ok && oldest <= taintHorizon {
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
		d := cpu.Detector()
		diverged := cur.diverged
		// Observe runs that already detected need no quiescence: detection
		// is monotone and observe mode never retries. Undetected runs — and
		// every full-protocol run, whose retry/machine-check resolution is
		// still in flight — must show the backend can produce no further
		// event, and (ITR only) that no faulty signature is resident to
		// seed one later.
		if full || d.Stats().Mismatches == 0 {
			if !d.Settled(cleanCommit, diverged) {
				continue
			}
			if ck := cpu.Checker(); ck != nil {
				if sweepHold > 0 {
					sweepHold--
					continue
				}
				if faultyResident(ck, oracle) {
					sweepHold = faultySweepBackoff - 1
					continue
				}
			}
		}
		if !diverged {
			// The cursor never flagged a divergence; prove the machine
			// actually re-converged with the golden execution, so all
			// future commits must match it. A failed proof means the
			// masked verdict is not yet safe: simulate the rest of the
			// window exactly.
			if !convergedWithGolden(cpu, stream, snap) {
				if rest := window - cpu.CycleCount(); rest > 0 {
					res = cpu.Run(rest)
				}
				return res, false, true
			}
		}
		return res, true, false
	}
}

// faultyResident reports whether any ITR cache line holds a signature that
// disagrees with the fault-free oracle — persistent corrupted evidence that
// a future faithful access could still trip over.
func faultyResident(ck *core.Checker, oracle *SigOracle) bool {
	faulty := false
	ck.Cache().Visit(func(ln *cache.Line) {
		if !faulty && ln.Value != oracle.TrueSig(ln.Key) {
			faulty = true
		}
	})
	return faulty
}

// convergedWithGolden proves the machine's committed architectural state is
// identical to the fault-free execution at the current commit boundary: it
// forks the golden architectural state from the run's own start snapshot
// (whose prefix is fault-free by construction), replays the shared golden
// outcome log up to the machine's commit count, and compares registers, PC,
// and — via the copy-on-write generation tags, so untouched pages compare by
// pointer — the full memory image.
func convergedWithGolden(cpu *pipeline.CPU, stream *GoldenStream, snap *pipeline.Snapshot) bool {
	committed := cpu.CommittedInsts()
	if committed <= snap.Committed {
		return false
	}
	st, mem := snap.ArchFork()
	r := &goldenCursor{s: stream}
	for i := snap.Committed; i < committed; i++ {
		st.ApplyRef(&r.at(int(i)).out)
	}
	machine := cpu.Committed()
	if st.R != machine.R || st.F != machine.F || st.PC != machine.PC {
		return false
	}
	mmem, ok := machine.Mem.(*isa.Memory)
	return ok && mem.Equal(mmem)
}
