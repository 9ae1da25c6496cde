package detect

import (
	"fmt"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/sig"
	"itr/internal/trace"
)

// offsetBus decorrelates the shadow execution's address space: every load
// and store lands offset bytes away from the primary's, so a fault whose
// effect depends on absolute addresses cannot strike both executions the
// same way. Register values and PCs stay canonical (offset-free), which is
// what makes the lockstep compare meaningful.
type offsetBus struct {
	mem *isa.Memory
	off uint64
}

func (b offsetBus) Load(addr uint64, size uint8) uint64 { return b.mem.Load(addr+b.off, size) }

func (b offsetBus) Store(addr uint64, size uint8, v uint64) { b.mem.Store(addr+b.off, size, v) }

// DME is the divergent dual-execution detector. Two redundant comparisons
// bracket every committed trace:
//
//   - At dispatch, the trace's accumulated signature is compared against an
//     independent second decode (the decode table's static trace
//     signature). A mismatch is pre-commit and recoverable: the protocol
//     flushes and retries exactly like ITR, and a second mismatch for the
//     same trace machine-checks.
//
//   - Behind commit, a second golden-model execution advances trace by
//     trace through a decorrelated address space (all memory traffic offset
//     by AddrOffset; PCs and register values canonical). If the committed
//     stream's next trace is not where the dual execution's PC says it
//     should be, corrupted state steered control flow — a post-commit
//     machine-check-class detection that the per-trace compare missed.
//
// Unlike ITR, DME needs no warm-up and has no capacity misses — every trace
// is checked — but it pays for that with a full second execution.
type DME struct {
	mode core.Mode
	tab  *program.DecodeTable
	rob  *core.ROB
	off  uint64

	// Shadow (dual) execution state: canonical registers and PC, memory
	// decorrelated through the offset bus.
	shadow    *isa.ArchState
	shadowMem *isa.Memory
	// resync re-anchors the shadow PC at the next committed trace (set
	// after a checkpoint rollback, whose horizon the shadow cannot rewind
	// to; see DiscardSignature).
	resync bool

	retryArmed bool
	retryPC    uint64

	// A committed-stream divergence awaiting Poll (full mode).
	pendingCheck bool
	pendingPC    uint64
	pendingStamp int64

	now        int64
	stats      core.Stats
	detections []core.Detection
}

// NewDME builds a divergent dual-execution detector for prog. The shadow
// starts at the program entry with empty decorrelated memory, mirroring the
// primary machine's reset state.
func NewDME(prog *program.Program, mode core.Mode, opts Options) (*DME, error) {
	if err := checkMode(mode); err != nil {
		return nil, err
	}
	opts = opts.normalize()
	mem := isa.NewMemory()
	d := &DME{
		mode:      mode,
		tab:       prog.DecodeTable(),
		rob:       core.NewROB(64),
		off:       opts.AddrOffset,
		shadow:    &isa.ArchState{Mem: offsetBus{mem: mem, off: opts.AddrOffset}},
		shadowMem: mem,
	}
	d.shadow.PC = prog.Entry
	return d, nil
}

// DispatchTrace performs the pre-commit compare: the trace's signature
// against the independent second decode of the same static trace.
func (d *DME) DispatchTrace(ev trace.Event, wrongPath bool) (seq uint64, ok bool) {
	if d.rob.Full() {
		return 0, false
	}
	ref := d.tab.TraceSig(ev.StartPC)
	entry := core.ROBEntry{
		StartPC: ev.StartPC, Sig: ev.Sig, CachedSig: ref, Len: ev.Len, WrongPath: wrongPath,
	}
	if ev.Sig == ref {
		entry.State = sig.CtrlChk
	} else {
		entry.State = sig.CtrlChkRetry
	}
	d.stats.Dispatched++
	d.stats.Hits++ // the reference is always available; DME never misses
	seq, _ = d.rob.Alloc(entry)
	return seq, true
}

// Full reports whether trace dispatch must stall for FIFO space.
func (d *DME) Full() bool { return d.rob.Full() }

// PendingTraces returns the number of in-flight trace entries (for tests).
func (d *DME) PendingTraces() int { return d.rob.Len() }

// PollQuick reports whether Poll would certainly proceed with no side
// effects: no committed-stream divergence pending and no head entry in the
// retry state.
func (d *DME) PollQuick() bool {
	if d.pendingCheck {
		return false
	}
	h := d.rob.Head()
	return h == nil || h.State == sig.CtrlChk
}

// record notes a detection exactly once per in-flight entry.
func (d *DME) record(h *core.ROBEntry) {
	if !h.MarkDetected() {
		return
	}
	d.stats.Mismatches++
	d.detections = append(d.detections, core.Detection{
		StartPC:   h.StartPC,
		AccessSig: h.Sig,
		CachedSig: h.CachedSig,
		Seq:       d.rob.HeadSeq(),
		OnRetry:   d.retryArmed && d.retryPC == h.StartPC,
	})
}

// Poll applies the commit rule: a pending committed-stream divergence
// machine-checks; a head entry whose dispatch compare mismatched flushes
// for retry (or machine-checks on the retry pass, mirroring ITR).
func (d *DME) Poll() core.Action {
	if d.pendingCheck {
		if d.mode == core.ModeObserve {
			d.pendingCheck = false
			return core.Action{Kind: core.ActionProceed}
		}
		d.stats.MachineChecks++
		return core.Action{Kind: core.ActionMachineCheck, RestartPC: d.pendingPC}
	}
	h := d.rob.Head()
	if h == nil {
		return core.Action{Kind: core.ActionProceed}
	}
	if h.State.Retry() {
		d.record(h)
		if d.mode == core.ModeObserve {
			return core.Action{Kind: core.ActionProceed}
		}
		if d.retryArmed && d.retryPC == h.StartPC {
			// The refetched instance still disagrees with the second
			// decode: the disagreement is persistent, not transient.
			d.retryArmed = false
			d.stats.MachineChecks++
			return core.Action{Kind: core.ActionMachineCheck, RestartPC: h.StartPC}
		}
		d.stats.Retries++
		pc := h.StartPC
		d.retryArmed = true
		d.retryPC = pc
		d.stats.Squashed += int64(d.rob.Len())
		d.rob.Clear()
		return core.Action{Kind: core.ActionRetry, RestartPC: pc}
	}
	return core.Action{Kind: core.ActionProceed}
}

// CommitTraceEnd retires the head trace: retry bookkeeping, then the dual
// execution advances through the same trace in its decorrelated space and
// checks that the committed stream is where its PC says it should be.
func (d *DME) CommitTraceEnd() {
	h := d.rob.Head()
	if h == nil {
		return
	}
	if h.State == sig.CtrlChk && d.retryArmed && d.retryPC == h.StartPC {
		// The retried instance matches the reference: transient confirmed.
		d.retryArmed = false
		d.stats.Recoveries++
	}
	d.advanceShadow(h)
	d.rob.PopHead()
}

// advanceShadow runs the dual execution through the retiring trace.
func (d *DME) advanceShadow(h *core.ROBEntry) {
	if d.pendingCheck {
		// A divergence already awaits action; the machine is about to
		// stop or roll back, so the shadow holds position.
		return
	}
	if d.resync {
		d.shadow.PC = h.StartPC
		d.resync = false
	}
	if d.shadow.PC != h.StartPC {
		// The primary committed a trace the dual execution did not reach:
		// corrupted state steered control flow past the per-trace compare.
		d.stats.Mismatches++
		d.detections = append(d.detections, core.Detection{
			StartPC:   h.StartPC,
			AccessSig: h.Sig,
			CachedSig: d.tab.TraceSig(h.StartPC),
			Seq:       d.rob.HeadSeq(),
		})
		if d.mode == core.ModeObserve {
			d.shadow.PC = h.StartPC // re-anchor and keep observing
		} else {
			d.pendingCheck = true
			d.pendingPC = h.StartPC
			d.pendingStamp = d.now
			return
		}
	}
	var out isa.Outcome
	for i := 0; i < h.Len; i++ {
		pc := d.shadow.PC
		d.shadow.ExecInto(&out, d.tab.Signals(pc), pc)
		d.shadow.ApplyRef(&out)
	}
	d.stats.ReplayedInsts += int64(h.Len)
}

// SetNow provides the committed-instruction count (divergence stamps).
func (d *DME) SetNow(committed int64) { d.now = committed }

// RollbackTo squashes in-flight entries younger than the branch checkpoint.
func (d *DME) RollbackTo(keepSeq uint64) {
	before := d.rob.Len()
	d.rob.SquashAfter(keepSeq)
	d.stats.Squashed += int64(before - d.rob.Len())
}

// FlushAll squashes every in-flight entry. The shadow is untouched: it only
// tracks committed state, which a flush does not change.
func (d *DME) FlushAll() {
	d.stats.Squashed += int64(d.rob.Len())
	d.rob.Clear()
}

// RetryArmed reports whether a flush-and-retry is outstanding.
func (d *DME) RetryArmed() (uint64, bool) { return d.retryPC, d.retryArmed }

// Settled implements core.Detector. The dual execution shadows the committed
// stream, so a permanently diverged stream keeps tripping the shadow-PC
// check forever — DME can never settle it. On a non-diverged stream the
// shadow stays in lockstep (committed outcomes equal golden, faithful static
// decode), so only transients block settlement: a pending divergence
// awaiting Poll, a scheduled re-anchor, an armed retry, or an in-flight
// entry whose dispatch compare already mismatched.
func (d *DME) Settled(cleanCommit int64, diverged bool) bool {
	if diverged || d.pendingCheck || d.resync || d.retryArmed {
		return false
	}
	settled := true
	d.rob.Visit(func(e *core.ROBEntry) {
		if e.State != sig.CtrlChk {
			settled = false
		}
	})
	return settled
}

// SafeToCheckpoint: every committed trace has already been checked against
// the second decode and the dual execution, so any quiescent point is safe.
func (d *DME) SafeToCheckpoint() bool { return !d.pendingCheck }

// SignatureStamp reports when the pending divergence was observed. DME holds
// no per-PC evidence older than that, so rollback is always worth trying.
func (d *DME) SignatureStamp(pc uint64) (int64, bool) {
	if d.pendingCheck {
		return d.pendingStamp, true
	}
	return 0, false
}

// DiscardSignature clears the pending divergence after a checkpoint
// rollback and schedules a shadow re-anchor: the dual execution cannot
// rewind its decorrelated memory to the checkpoint horizon, so it re-anchors
// its PC at the next committed trace and keeps checking control flow from
// there (a modeling simplification documented in DESIGN.md §9).
func (d *DME) DiscardSignature(pc uint64) {
	d.pendingCheck = false
	d.resync = true
}

// Stats returns a copy of the event counters.
func (d *DME) Stats() core.Stats { return d.stats }

// MismatchCount implements core.Detector.
func (d *DME) MismatchCount() *int64 { return &d.stats.Mismatches }

// Detections returns all mismatches observed so far.
func (d *DME) Detections() []core.Detection {
	out := make([]core.Detection, len(d.detections))
	copy(out, d.detections)
	return out
}

// DMEState is an immutable capture of a DME detector's mutable state. The
// shadow memory rides the paged store's copy-on-write snapshots, so captures
// are O(page table) like the machine's own.
type DMEState struct {
	core.BaseDetectorState

	rob *core.ROB
	off uint64

	shadowR   [isa.NumRegs]uint64
	shadowF   [isa.NumRegs]uint64
	shadowPC  uint64
	shadowMem *isa.Memory
	resync    bool

	retryArmed bool
	retryPC    uint64

	pendingCheck bool
	pendingPC    uint64
	pendingStamp int64

	now        int64
	stats      core.Stats
	detections []core.Detection
}

// CaptureState snapshots the detector's mutable state.
func (d *DME) CaptureState() core.DetectorState {
	return &DMEState{
		rob: d.rob.Clone(),
		off: d.off,

		shadowR:   d.shadow.R,
		shadowF:   d.shadow.F,
		shadowPC:  d.shadow.PC,
		shadowMem: d.shadowMem.Snapshot(),
		resync:    d.resync,

		retryArmed: d.retryArmed,
		retryPC:    d.retryPC,

		pendingCheck: d.pendingCheck,
		pendingPC:    d.pendingPC,
		pendingStamp: d.pendingStamp,

		now:        d.now,
		stats:      d.stats,
		detections: clampDetections(d.detections),
	}
}

// RestoreState overwrites the detector's mutable state with a capture taken
// from an identically configured detector, preserving the detector's
// identity (its shadow memory pointer stays wired into the offset bus).
func (d *DME) RestoreState(state core.DetectorState) error {
	s, ok := state.(*DMEState)
	if !ok {
		return fmt.Errorf("dme: restore from foreign detector state %T", state)
	}
	if s.off != d.off {
		return fmt.Errorf("dme: restore address offset %#x into detector with %#x", s.off, d.off)
	}
	if err := d.rob.CopyFrom(s.rob); err != nil {
		return err
	}
	d.shadow.R = s.shadowR
	d.shadow.F = s.shadowF
	d.shadow.PC = s.shadowPC
	d.shadowMem.CopyFrom(s.shadowMem)
	d.resync = s.resync
	d.retryArmed = s.retryArmed
	d.retryPC = s.retryPC
	d.pendingCheck = s.pendingCheck
	d.pendingPC = s.pendingPC
	d.pendingStamp = s.pendingStamp
	d.now = s.now
	d.stats = s.stats
	// Adopt the capacity-clamped log by reference (copy-on-write append).
	d.detections = s.detections
	return nil
}

var _ core.Detector = (*DME)(nil)
