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
// faulty instance retired — so the full protocol cannot flush-and-retry: a
// mismatching chunk becomes the frame's pending verdict, which
// machine-checks, and only a coarse-grain checkpoint can turn that into
// recovery. A faulty trace inside a still-open chunk at window end goes
// undetected; that latency window is the mechanism's defining cost.
//
// The frame's FIFO serves purely in dispatch order (branch-checkpoint
// sequence numbers, misprediction rollback); no signature comparison
// happens before commit.
type RepTFD struct {
	core.Frame
	tab *program.DecodeTable

	chunkTraces int

	repTFDVals
}

// repTFDVals is the RepTFD detector's plain mutable state beyond its
// frame's, captured and restored with one assignment. It must stay
// comparable: no slices, maps or pointers to mutable data. The round-trip
// tests compare it with ==, so a slice field added here fails to compile.
type repTFDVals struct {
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
}

// NewRepTFD builds a chunked-replay detector for prog.
func NewRepTFD(prog *program.Program, mode core.Mode, opts Options) (*RepTFD, error) {
	f, err := core.NewFrame(mode)
	if err != nil {
		return nil, err
	}
	opts = opts.normalize()
	return &RepTFD{Frame: f, tab: prog.DecodeTable(), chunkTraces: opts.ChunkTraces}, nil
}

// DispatchTrace enqueues the trace in dispatch order. RepTFD does no
// dispatch-time checking; the entry only carries the signature to commit.
func (d *RepTFD) DispatchTrace(ev trace.Event, wrongPath bool) (seq uint64, ok bool) {
	return d.Dispatch(core.ROBEntry{
		StartPC: ev.StartPC, Sig: ev.Sig, Len: ev.Len,
		State: sig.CtrlChk, WrongPath: wrongPath,
	})
}

// CommitTraceEnd folds the retiring trace into the open chunk, replays its
// fault-free signature, and closes the chunk at the configured length.
func (d *RepTFD) CommitTraceEnd() {
	h := d.Head()
	if h == nil {
		return
	}
	if d.chunkLen == 0 {
		d.chunkStartPC = h.StartPC
		d.chunkStartNow = d.Now()
		d.divSeen = false
	}
	replayed := d.tab.TraceSig(h.StartPC)
	d.chunkSig = chunkFold(d.chunkSig, h.Sig)
	d.replaySig = chunkFold(d.replaySig, replayed)
	d.Counters().ReplayedInsts += int64(h.Len)
	if !d.divSeen && h.Sig != replayed {
		d.divSeen = true
		d.divPC = h.StartPC
		d.divSig = h.Sig
		d.divOracle = replayed
		d.divSeq = d.HeadSeq()
	}
	d.chunkLen++
	if d.chunkLen >= d.chunkTraces {
		d.closeChunk()
	}
	d.Retire()
}

// closeChunk compares the committed digest against the replay digest and,
// on mismatch, pends a verdict attributed to the first divergent trace so
// classification can ask which instance was faulty.
func (d *RepTFD) closeChunk() {
	d.Counters().ChunksChecked++
	if d.chunkSig != d.replaySig {
		det := core.Detection{StartPC: d.chunkStartPC, AccessSig: d.chunkSig, CachedSig: d.replaySig}
		if d.divSeen {
			det = core.Detection{StartPC: d.divPC, AccessSig: d.divSig, CachedSig: d.divOracle, Seq: d.divSeq}
		}
		d.Pend(det, d.chunkStartNow)
	}
	d.resetChunk()
}

func (d *RepTFD) resetChunk() {
	d.chunkLen = 0
	d.chunkSig = 0
	d.replaySig = 0
	d.divSeen = false
}

// Settled implements core.Detector. Every in-flight entry just carries its
// dispatched signature to commit, so under the caller's premise (all folds
// after cleanCommit are faithful) the only corrupted state that can still
// surface is a pending verdict or an open chunk that started at or before
// cleanCommit and may have folded a corrupted trace. Divergence is
// irrelevant: each trace replays from its own start PC, so a faithfully
// dispatched trace matches its replay wherever control flow went.
func (d *RepTFD) Settled(cleanCommit int64, diverged bool) bool {
	return d.Quiet() && (d.chunkLen == 0 || d.chunkStartNow > cleanCommit)
}

// SafeToCheckpoint permits checkpoints only at chunk boundaries with no
// verdict pending: an open chunk is committed-but-unverified state, the
// exact hazard the strict checkpoint policy exists to exclude.
func (d *RepTFD) SafeToCheckpoint() bool { return d.chunkLen == 0 && !d.Pending() }

// DiscardSignature drops the pending verdict and the open chunk after a
// checkpoint rollback; the rolled-back re-execution accumulates fresh
// chunks.
func (d *RepTFD) DiscardSignature(pc uint64) {
	d.DropVerdict()
	d.resetChunk()
}

// RepTFDState is an immutable capture of a RepTFD detector's mutable state:
// the frame's capture, the plain state by value and the chunk length it was
// captured under (checked on restore).
type RepTFDState struct {
	core.FrameState

	v           repTFDVals
	chunkTraces int
}

// CaptureState snapshots the detector's mutable state.
func (d *RepTFD) CaptureState() core.DetectorState {
	return &RepTFDState{FrameState: d.Capture(), v: d.repTFDVals, chunkTraces: d.chunkTraces}
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
	if err := d.Restore(&s.FrameState); err != nil {
		return err
	}
	d.repTFDVals = s.v
	return nil
}

var _ core.Detector = (*RepTFD)(nil)
