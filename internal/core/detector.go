package core

import "itr/internal/trace"

// Detector is the pipeline-facing contract every fault-detection backend
// implements. The ITR Checker is the reference implementation; rival
// mechanisms (chunked replay, divergent dual execution) plug in behind the
// same seam so the pipeline, fault campaigns, snapshots and experiment
// engine drive them identically.
//
// Every backend embeds a Frame, which owns the Section 2.2 in-flight
// protocol: the trace FIFO, flush-and-retry, the machine check, a pending
// post-commit verdict, the timebase, the counters and the detection log.
// The pipeline takes the frame once (Base) and calls its Full, PollQuick,
// SetNow, RollbackTo and FlushAll directly; the methods below are each
// backend's policy. The pipeline calls DispatchTrace when decode completes a
// trace (stalling while the frame is full), Poll for every instruction that
// is ready to commit and PollQuick does not clear, and CommitTraceEnd when
// the trace-terminating instruction commits.
//
// Implementations are single-threaded: a detector belongs to one CPU and is
// only called from its cycle loop. Captured DetectorStates, however, must be
// immutable so one capture can be restored into many detectors concurrently
// (the campaign run arenas do exactly that).
type Detector interface {
	// Base returns the backend's embedded frame (promoted from Frame).
	Base() *Frame
	// DispatchTrace ingests a completed trace, returning the in-flight
	// sequence number used by branch checkpoints. ok is false when the
	// in-flight window is full and dispatch must stall. The backend picks
	// the reference the trace is compared against: the ITR cache, the
	// static trace signature, or none before commit.
	DispatchTrace(ev trace.Event, wrongPath bool) (seq uint64, ok bool)
	// Poll is the per-commit verdict for the instruction at the head of the
	// machine's commit stream (the frame's rule, plus ITR's parity repair).
	Poll() Action
	// CommitTraceEnd retires the oldest in-flight trace after its
	// terminating instruction committed (backend bookkeeping: signature
	// install, replay fold, shadow execution).
	CommitTraceEnd()
	// SafeToCheckpoint reports whether a coarse-grain checkpoint taken now
	// could later be rolled back to safely — i.e. no committed state is
	// still awaiting verification by this backend (for ITR: no unchecked
	// cache lines; for chunked replay: no open chunk).
	SafeToCheckpoint() bool
	// SignatureStamp returns the committed-instruction stamp of the
	// backend's evidence about pc (the ITR cache line install stamp, or the
	// pending verdict's stamp). Checkpointed recovery compares it to the
	// checkpoint's commit horizon to decide whether rollback can help.
	// found is false when the backend holds no evidence for pc.
	SignatureStamp(pc uint64) (stamp int64, found bool)
	// DiscardSignature drops the backend's (possibly fault-corrupted)
	// evidence about pc after a checkpoint rollback, so re-execution
	// re-learns it cleanly.
	DiscardSignature(pc uint64)
	// Settled reports whether the backend can still produce any
	// detection, retry or machine-check event in the future, under the
	// caller-guaranteed premise that every trace folding into the backend
	// at a committed-instruction count strictly greater than cleanCommit
	// is faithful (its dispatched signature equals the fault-free static
	// decode of its start PC). diverged tells the backend whether the
	// committed stream has permanently left the fault-free golden path;
	// backends that shadow-execute the committed stream (DME) keep
	// detecting on a diverged stream forever and must answer false.
	// Settled returning true means the backend's detection verdict is
	// final — the decided-outcome fault classifier uses it to stop
	// simulating once nothing observable can change. False negatives are
	// safe (the run continues); false positives would misclassify.
	//
	// Settled does NOT cover corrupted evidence a backend persists for
	// later, unrelated accesses (a faulty resident ITR cache line); the
	// caller audits that state separately where it can consult an oracle.
	Settled(cleanCommit int64, diverged bool) bool
	// CaptureState snapshots the detector's mutable state. The capture is
	// immutable and safe to restore concurrently into many detectors.
	CaptureState() DetectorState
	// RestoreState overwrites the detector's mutable state with a capture
	// taken from a structurally identical detector.
	RestoreState(DetectorState) error
}

// DetectorState marks a backend's opaque immutable state capture. Each
// backend type-asserts its own concrete state in RestoreState. Every
// capture embeds its frame's FrameState, whose unexported method seals the
// interface against arbitrary types.
type DetectorState interface {
	frame() *FrameState
}

var _ Detector = (*Checker)(nil)
