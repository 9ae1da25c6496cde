package detect

import (
	"fmt"

	"itr/internal/core"
	"itr/internal/program"
	"itr/internal/sig"
	"itr/internal/trace"
)

// chunkFold mixes one trace signature into a chunk digest. The FNV-style
// multiply-xor keeps the fold order-sensitive, so two compensating faults
// inside a chunk cannot cancel the way a plain XOR would let them.
func chunkFold(digest, traceSig uint64) uint64 {
	return digest*1099511628211 ^ traceSig
}

// RepTFD is the chunked-replay detector: committed traces are folded into a
// fixed-length chunk digest while a deterministic replay of the same chunk
// (the decode table's static trace signatures) folds the fault-free digest,
// and the two are compared when the chunk closes. Faults are therefore
// detected with a latency of up to ChunkTraces committed traces — after the
// faulty instance retired — so the full protocol cannot flush-and-retry: it
// machine-checks, and only a coarse-grain checkpoint can turn that into
// recovery. A faulty trace inside a still-open chunk at window end goes
// undetected; that latency window is the mechanism's defining cost.
//
// The in-flight side reuses the ITR ROB purely as a dispatch-order FIFO
// (branch-checkpoint sequence numbers, misprediction rollback); no signature
// comparison happens before commit.
type RepTFD struct {
	mode core.Mode
	tab  *program.DecodeTable
	rob  *core.ROB

	chunkTraces int

	// Open-chunk accumulation over the committed stream.
	chunkLen      int    // traces folded so far
	chunkSig      uint64 // digest of committed signatures
	replaySig     uint64 // digest of replayed (fault-free) signatures
	chunkStartPC  uint64 // start PC of the chunk's first trace
	chunkStartNow int64  // committed-instruction count at chunk start
	divSeen       bool   // first divergent trace inside the open chunk
	divPC         uint64
	divSig        uint64
	divOracle     uint64
	divSeq        uint64

	// A closed chunk whose digests disagreed, awaiting Poll (full mode).
	pending      bool
	pendingPC    uint64
	pendingStamp int64

	now        int64
	stats      core.Stats
	detections []core.Detection
}

// NewRepTFD builds a chunked-replay detector for prog.
func NewRepTFD(prog *program.Program, mode core.Mode, opts Options) (*RepTFD, error) {
	if err := checkMode(mode); err != nil {
		return nil, err
	}
	opts = opts.normalize()
	return &RepTFD{
		mode:        mode,
		tab:         prog.DecodeTable(),
		rob:         core.NewROB(64),
		chunkTraces: opts.ChunkTraces,
	}, nil
}

// DispatchTrace enqueues the trace in dispatch order. RepTFD does no
// dispatch-time checking; the entry only carries the signature to commit.
func (d *RepTFD) DispatchTrace(ev trace.Event, wrongPath bool) (seq uint64, ok bool) {
	if d.rob.Full() {
		return 0, false
	}
	d.stats.Dispatched++
	seq, _ = d.rob.Alloc(core.ROBEntry{
		StartPC: ev.StartPC, Sig: ev.Sig, Len: ev.Len,
		State: sig.CtrlChk, WrongPath: wrongPath,
	})
	return seq, true
}

// Full reports whether trace dispatch must stall for FIFO space.
func (d *RepTFD) Full() bool { return d.rob.Full() }

// PendingTraces returns the number of in-flight trace entries (for tests).
func (d *RepTFD) PendingTraces() int { return d.rob.Len() }

// PollQuick reports whether Poll would certainly proceed: no chunk mismatch
// is awaiting action.
func (d *RepTFD) PollQuick() bool { return !d.pending }

// Poll only ever acts on a closed mismatching chunk: by then the faulty
// instance committed, so the verdict is a machine check (detection-only; a
// checkpointed pipeline may still roll back).
func (d *RepTFD) Poll() core.Action {
	if !d.pending {
		return core.Action{Kind: core.ActionProceed}
	}
	if d.mode == core.ModeObserve {
		d.pending = false
		return core.Action{Kind: core.ActionProceed}
	}
	d.stats.MachineChecks++
	return core.Action{Kind: core.ActionMachineCheck, RestartPC: d.pendingPC}
}

// CommitTraceEnd folds the retiring trace into the open chunk, replays its
// fault-free signature, and closes the chunk at the configured length.
func (d *RepTFD) CommitTraceEnd() {
	h := d.rob.Head()
	if h == nil {
		return
	}
	if d.chunkLen == 0 {
		d.chunkStartPC = h.StartPC
		d.chunkStartNow = d.now
		d.divSeen = false
	}
	replayed := d.tab.TraceSig(h.StartPC)
	d.chunkSig = chunkFold(d.chunkSig, h.Sig)
	d.replaySig = chunkFold(d.replaySig, replayed)
	d.stats.ReplayedInsts += int64(h.Len)
	if !d.divSeen && h.Sig != replayed {
		d.divSeen = true
		d.divPC = h.StartPC
		d.divSig = h.Sig
		d.divOracle = replayed
		d.divSeq = d.rob.HeadSeq()
	}
	d.chunkLen++
	if d.chunkLen >= d.chunkTraces {
		d.closeChunk()
	}
	d.rob.PopHead()
}

// closeChunk compares the committed digest against the replay digest and
// records a detection on mismatch, attributing it to the first divergent
// trace so classification can ask which instance was faulty.
func (d *RepTFD) closeChunk() {
	d.stats.ChunksChecked++
	if d.chunkSig != d.replaySig && !d.pending {
		pc, accessSig, cachedSig, seq := d.chunkStartPC, d.chunkSig, d.replaySig, uint64(0)
		if d.divSeen {
			pc, accessSig, cachedSig, seq = d.divPC, d.divSig, d.divOracle, d.divSeq
		}
		d.stats.Mismatches++
		d.detections = append(d.detections, core.Detection{
			StartPC: pc, AccessSig: accessSig, CachedSig: cachedSig, Seq: seq,
		})
		d.pending = true
		d.pendingPC = pc
		d.pendingStamp = d.chunkStartNow
	}
	d.chunkLen = 0
	d.chunkSig = 0
	d.replaySig = 0
	d.divSeen = false
}

// SetNow provides the committed-instruction count (chunk-start stamps).
func (d *RepTFD) SetNow(committed int64) { d.now = committed }

// RollbackTo squashes in-flight entries younger than the branch checkpoint.
// Committed chunk accumulation is untouched: committed traces are final.
func (d *RepTFD) RollbackTo(keepSeq uint64) {
	before := d.rob.Len()
	d.rob.SquashAfter(keepSeq)
	d.stats.Squashed += int64(before - d.rob.Len())
}

// FlushAll squashes every in-flight entry.
func (d *RepTFD) FlushAll() {
	d.stats.Squashed += int64(d.rob.Len())
	d.rob.Clear()
}

// RetryArmed always reports false: RepTFD never retries.
func (d *RepTFD) RetryArmed() (uint64, bool) { return 0, false }

// Settled implements core.Detector. Every in-flight entry just carries its
// dispatched signature to commit, so under the caller's premise (all folds
// after cleanCommit are faithful) the only corrupted state that can still
// surface is a chunk that is pending action or an open chunk that started at
// or before cleanCommit and may have folded a corrupted trace. Divergence is
// irrelevant: each trace replays from its own start PC, so a faithfully
// dispatched trace matches its replay wherever control flow went.
func (d *RepTFD) Settled(cleanCommit int64, diverged bool) bool {
	return !d.pending && (d.chunkLen == 0 || d.chunkStartNow > cleanCommit)
}

// SafeToCheckpoint permits checkpoints only at chunk boundaries with no
// mismatch outstanding: an open chunk is committed-but-unverified state, the
// exact hazard the strict checkpoint policy exists to exclude.
func (d *RepTFD) SafeToCheckpoint() bool { return d.chunkLen == 0 && !d.pending }

// SignatureStamp reports when the pending mismatching chunk began, so
// checkpointed recovery can tell whether the corrupted chunk postdates the
// checkpoint (rollback sound) or straddles it.
func (d *RepTFD) SignatureStamp(pc uint64) (int64, bool) {
	if d.pending {
		return d.pendingStamp, true
	}
	return 0, false
}

// DiscardSignature clears the pending mismatch after a checkpoint rollback;
// the rolled-back re-execution accumulates fresh chunks.
func (d *RepTFD) DiscardSignature(pc uint64) {
	d.pending = false
	d.chunkLen = 0
	d.chunkSig = 0
	d.replaySig = 0
	d.divSeen = false
}

// Stats returns a copy of the event counters.
func (d *RepTFD) Stats() core.Stats { return d.stats }

// MismatchCount implements core.Detector.
func (d *RepTFD) MismatchCount() *int64 { return &d.stats.Mismatches }

// Detections returns all chunk mismatches observed so far.
func (d *RepTFD) Detections() []core.Detection {
	out := make([]core.Detection, len(d.detections))
	copy(out, d.detections)
	return out
}

// RepTFDState is an immutable capture of a RepTFD detector's mutable state.
type RepTFDState struct {
	core.BaseDetectorState

	rob         *core.ROB
	chunkTraces int

	chunkLen      int
	chunkSig      uint64
	replaySig     uint64
	chunkStartPC  uint64
	chunkStartNow int64
	divSeen       bool
	divPC         uint64
	divSig        uint64
	divOracle     uint64
	divSeq        uint64

	pending      bool
	pendingPC    uint64
	pendingStamp int64

	now        int64
	stats      core.Stats
	detections []core.Detection
}

// CaptureState snapshots the detector's mutable state.
func (d *RepTFD) CaptureState() core.DetectorState {
	return &RepTFDState{
		rob:         d.rob.Clone(),
		chunkTraces: d.chunkTraces,

		chunkLen:      d.chunkLen,
		chunkSig:      d.chunkSig,
		replaySig:     d.replaySig,
		chunkStartPC:  d.chunkStartPC,
		chunkStartNow: d.chunkStartNow,
		divSeen:       d.divSeen,
		divPC:         d.divPC,
		divSig:        d.divSig,
		divOracle:     d.divOracle,
		divSeq:        d.divSeq,

		pending:      d.pending,
		pendingPC:    d.pendingPC,
		pendingStamp: d.pendingStamp,

		now:        d.now,
		stats:      d.stats,
		detections: clampDetections(d.detections),
	}
}

// RestoreState overwrites the detector's mutable state with a capture taken
// from an identically configured detector.
func (d *RepTFD) RestoreState(state core.DetectorState) error {
	s, ok := state.(*RepTFDState)
	if !ok {
		return fmt.Errorf("reptfd: restore from foreign detector state %T", state)
	}
	if s.chunkTraces != d.chunkTraces {
		return fmt.Errorf("reptfd: restore chunk length %d into detector with %d", s.chunkTraces, d.chunkTraces)
	}
	if err := d.rob.CopyFrom(s.rob); err != nil {
		return err
	}
	d.chunkLen = s.chunkLen
	d.chunkSig = s.chunkSig
	d.replaySig = s.replaySig
	d.chunkStartPC = s.chunkStartPC
	d.chunkStartNow = s.chunkStartNow
	d.divSeen = s.divSeen
	d.divPC = s.divPC
	d.divSig = s.divSig
	d.divOracle = s.divOracle
	d.divSeq = s.divSeq
	d.pending = s.pending
	d.pendingPC = s.pendingPC
	d.pendingStamp = s.pendingStamp
	d.now = s.now
	d.stats = s.stats
	// Adopt the capacity-clamped log by reference (copy-on-write append).
	d.detections = s.detections
	return nil
}

var _ core.Detector = (*RepTFD)(nil)
