package core

import (
	"fmt"

	"itr/internal/sig"
)

// Frame is the Section 2.2 in-flight protocol every detection backend
// shares: the trace FIFO in dispatch order (the ITR ROB), the commit-time
// poll, flush-and-retry on a first mismatch, a machine check on a second,
// a post-commit verdict awaiting the next poll, the committed-instruction
// timebase, the event counters and the detection log. Backends embed a
// Frame and keep only their policy: where dispatch gets its reference
// signature, what retiring a trace does, and when they are settled or safe
// to checkpoint.
//
// The pipeline takes a backend's frame once (Detector.Base) and calls its
// Full, PollQuick, SetNow, RollbackTo and FlushAll directly.
type Frame struct {
	mode Mode
	rob  *ROB

	frameVals

	detections []Detection
}

// frameVals is the frame's plain mutable state, captured and restored with
// one assignment. It must stay comparable: no slices, maps or pointers to
// mutable data. SameVals compares it with ==, so a slice field added here
// fails to compile.
type frameVals struct {
	retryArmed bool
	retryPC    uint64

	// A post-commit verdict (a RepTFD chunk or DME divergence) awaiting the
	// next poll.
	pending      bool
	pendingPC    uint64
	pendingStamp int64

	now int64 // committed-instruction count, provided by the pipeline

	stats Stats
}

// NewFrame returns a frame for the given mode with a 64-entry trace FIFO,
// which comfortably covers the branches a 128-entry main ROB holds.
func NewFrame(mode Mode) (Frame, error) {
	if mode != ModeFull && mode != ModeObserve {
		return Frame{}, fmt.Errorf("unknown detector mode %d", mode)
	}
	return Frame{mode: mode, rob: NewROB(64)}, nil
}

// Base returns the frame itself; embedded in a backend, it hands the
// pipeline the backend's frame.
func (f *Frame) Base() *Frame { return f }

// Observing reports whether the frame records detections without acting.
func (f *Frame) Observing() bool { return f.mode == ModeObserve }

// Full reports whether trace dispatch must stall for in-flight space.
func (f *Frame) Full() bool { return f.rob.Full() }

// PendingTraces returns the number of in-flight trace entries.
func (f *Frame) PendingTraces() int { return f.rob.Len() }

// SetNow provides the current committed-instruction count, the timebase of
// cache-line install stamps and post-commit verdicts.
func (f *Frame) SetNow(committed int64) { f.now = committed }

// Now returns the committed-instruction count last provided by SetNow.
func (f *Frame) Now() int64 { return f.now }

// Stats returns a copy of the event counters.
func (f *Frame) Stats() Stats { return f.stats }

// Counters returns the live counters, for a backend's own events.
func (f *Frame) Counters() *Stats { return &f.stats }

// Mismatches returns the running mismatch total: Stats().Mismatches without
// the struct copy, for the pipeline's per-trace retirement check.
func (f *Frame) Mismatches() int64 { return f.stats.Mismatches }

// Detections returns all mismatches observed so far.
func (f *Frame) Detections() []Detection {
	out := make([]Detection, len(f.detections))
	copy(out, f.detections)
	return out
}

// Dispatch appends a trace entry at the FIFO tail and returns its sequence
// number for branch checkpoints. ok is false when the FIFO is full and
// dispatch must stall.
func (f *Frame) Dispatch(e ROBEntry) (seq uint64, ok bool) {
	seq, ok = f.rob.Alloc(e)
	if ok {
		f.stats.Dispatched++
	}
	return seq, ok
}

// Head returns the oldest in-flight entry, or nil when none is in flight.
func (f *Frame) Head() *ROBEntry { return f.rob.Head() }

// HeadSeq returns the sequence number of the oldest in-flight entry.
func (f *Frame) HeadSeq() uint64 { return f.rob.HeadSeq() }

// PollQuick reports whether Poll would certainly return ActionProceed with
// no side effects: no verdict pending, and no head entry or one whose state
// is exactly CtrlMiss or CtrlChk. It is small enough to inline, so the
// pipeline's commit loop skips the full Poll on the overwhelmingly common
// fault-free path. Any other state (corrupted non-one-hot encodings
// included) must go through Poll.
func (f *Frame) PollQuick() bool {
	if f.pending {
		return false
	}
	r := f.rob
	if r.head == r.tail {
		return true
	}
	s := r.entries[r.head&r.mask].State
	return s == sig.CtrlMiss || s == sig.CtrlChk
}

// Poll implements the commit rule: every instruction ready to commit polls
// the frame. A pending post-commit verdict machine-checks: the faulty
// instance already committed. Otherwise the head entry decides: a set retry
// bit flushes the processor at once — even before the faulting trace's
// terminating instruction commits, which is how ITR rescues faults that
// would otherwise deadlock the machine mid-trace — and the retried trace
// mismatching again raises a machine check. Observe mode records the
// detection and proceeds.
func (f *Frame) Poll() Action {
	if f.pending {
		if f.mode == ModeObserve {
			f.pending = false
			return Action{Kind: ActionProceed}
		}
		f.stats.MachineChecks++
		return Action{Kind: ActionMachineCheck, RestartPC: f.pendingPC}
	}
	h := f.rob.Head()
	if h == nil {
		// The committing instruction's trace is still forming; its check
		// happens when the trace terminates. (The final, partial trace of
		// a program is never checked.)
		return Action{Kind: ActionProceed}
	}
	switch {
	case !h.State.Valid():
		// A fault on the control bits themselves: the one-hot encoding
		// makes it detectable (Section 2.4). Treat conservatively as a
		// retry.
		f.record(h)
		if f.mode == ModeObserve {
			h.State = sig.CtrlChk
			return Action{Kind: ActionProceed}
		}
		return f.retry(h.StartPC)

	case h.State == sig.CtrlNone:
		return Action{Kind: ActionStall}

	case h.State.Retry():
		f.record(h)
		if f.mode == ModeObserve {
			return Action{Kind: ActionProceed}
		}
		if f.retryArmed && f.retryPC == h.StartPC {
			// Second mismatch for the same trace: the reference is right
			// and the previous instance executed with a fault, corrupting
			// architectural state. Abort (or roll back to a coarse-grain
			// checkpoint if the pipeline has one); RestartPC names the
			// offending trace so checkpointed recovery can repair its
			// evidence.
			f.retryArmed = false
			f.stats.MachineChecks++
			return Action{Kind: ActionMachineCheck, RestartPC: h.StartPC}
		}
		// First mismatch: flush and restart from the trace's start PC to
		// determine which instance is faulty.
		return f.retry(h.StartPC)
	}
	return Action{Kind: ActionProceed} // CtrlMiss or CtrlChk
}

// record notes a detection on the head entry exactly once, no matter how
// many commits poll it.
func (f *Frame) record(h *ROBEntry) {
	if h.detRecorded {
		return
	}
	h.detRecorded = true
	f.Detect(Detection{
		StartPC:   h.StartPC,
		AccessSig: h.Sig,
		CachedSig: h.CachedSig,
		Seq:       f.rob.HeadSeq(),
		OnRetry:   f.retryArmed && f.retryPC == h.StartPC,
	})
}

// retry arms flush-and-retry for pc and squashes the whole FIFO: the
// pipeline flushes everything and refetches from the trace's start PC.
func (f *Frame) retry(pc uint64) Action {
	f.stats.Retries++
	f.retryArmed = true
	f.retryPC = pc
	f.stats.Squashed += int64(f.rob.Len())
	f.rob.Clear()
	return Action{Kind: ActionRetry, RestartPC: pc}
}

// Detect logs a detection a backend observed outside the head poll.
func (f *Frame) Detect(d Detection) {
	f.stats.Mismatches++
	f.detections = append(f.detections, d)
}

// Pend logs a post-commit detection and holds its verdict for the next
// poll; stamp is the committed-instruction count checkpointed recovery
// compares against its horizon. While a verdict is pending, further
// post-commit detections are dropped: the machine is about to stop or roll
// back.
func (f *Frame) Pend(d Detection, stamp int64) {
	if f.pending {
		return
	}
	f.Detect(d)
	f.pending = true
	f.pendingPC = d.StartPC
	f.pendingStamp = stamp
}

// Pending reports whether a post-commit verdict awaits the next poll.
func (f *Frame) Pending() bool { return f.pending }

// SignatureStamp returns the pending verdict's stamp: the backend holds no
// older per-PC evidence, so rollback is worth trying whenever the stamp
// postdates the checkpoint. The ITR checker answers from its cache instead.
func (f *Frame) SignatureStamp(pc uint64) (stamp int64, found bool) {
	if f.pending {
		return f.pendingStamp, true
	}
	return 0, false
}

// DropVerdict clears a pending verdict after a checkpoint rollback.
func (f *Frame) DropVerdict() { f.pending = false }

// Retire frees the head entry after its terminating instruction committed
// and settles the retry bookkeeping: a retried trace that matched its
// reference confirms the earlier mismatch was a transient in the squashed
// instance (recovered), and one that resolved another way (it missed after
// an intervening eviction) drops the retry.
func (f *Frame) Retire() {
	h := f.rob.Head()
	if h == nil {
		return
	}
	if f.retryArmed && f.retryPC == h.StartPC {
		switch h.State {
		case sig.CtrlChk:
			f.retryArmed = false
			f.stats.Recoveries++
		case sig.CtrlMiss:
			f.retryArmed = false
		}
	}
	f.rob.PopHead()
}

// RollbackTo squashes in-flight entries younger than the branch checkpoint
// keepSeq (branch misprediction recovery, Section 2.2). Committed state is
// untouched.
func (f *Frame) RollbackTo(keepSeq uint64) {
	before := f.rob.Len()
	f.rob.SquashAfter(keepSeq)
	f.stats.Squashed += int64(before - f.rob.Len())
}

// FlushAll squashes every in-flight entry (whole-pipeline flushes that are
// not the frame's own retries).
func (f *Frame) FlushAll() {
	f.stats.Squashed += int64(f.rob.Len())
	f.rob.Clear()
}

// Quiet reports whether the frame can raise no event on its own: no retry
// armed, no verdict pending, and every in-flight entry resolved to chk or
// miss. Backends build Settled on it.
func (f *Frame) Quiet() bool {
	if f.retryArmed || f.pending {
		return false
	}
	quiet := true
	f.rob.Visit(func(e *ROBEntry) {
		if e.State != sig.CtrlChk && e.State != sig.CtrlMiss {
			quiet = false
		}
	})
	return quiet
}

// FrameState is an immutable capture of a frame: the plain state by value,
// a clone of the FIFO, and the detection log shared copy-on-write with the
// frame — the capture is capacity-clamped, entries are append-only, and a
// restored frame adopts the log by reference so its next append grows a
// fresh array. Backend captures embed it, which also seals them as
// DetectorStates. A capture is never written through, so one may be
// restored into many frames concurrently.
type FrameState struct {
	v          frameVals
	rob        *ROB
	detections []Detection
}

func (s *FrameState) frame() *FrameState { return s }

// Capture snapshots the frame's mutable state.
func (f *Frame) Capture() FrameState {
	return FrameState{
		v:          f.frameVals,
		rob:        f.rob.Clone(),
		detections: f.detections[:len(f.detections):len(f.detections)],
	}
}

// Restore overwrites the frame's mutable state with s. Mode is
// configuration, not state, and is left untouched.
func (f *Frame) Restore(s *FrameState) error {
	if err := f.rob.CopyFrom(s.rob); err != nil {
		return err
	}
	f.frameVals = s.v
	// Adopt the captured log by reference: it is capacity-clamped, so the
	// next detection grows a fresh backing array and the capture stays
	// immutable. Never truncate-and-reuse f.detections here — its backing
	// array may be visible to an earlier capture.
	f.detections = s.detections
	return nil
}

// SameVals reports whether the frame's plain state equals the one s
// captured (the state round-trip tests' check).
func (f *Frame) SameVals(s DetectorState) bool { return f.frameVals == s.frame().v }
