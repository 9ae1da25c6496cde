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
//     signature). A mismatch is pre-commit and recoverable: the frame
//     flushes and retries exactly like ITR, and a second mismatch for the
//     same trace machine-checks.
//
//   - Behind commit, a second golden-model execution advances trace by
//     trace through a decorrelated address space (all memory traffic offset
//     by AddrOffset; PCs and register values canonical). If the committed
//     stream's next trace is not where the dual execution's PC says it
//     should be, corrupted state steered control flow — a post-commit
//     detection the per-trace compare missed, which the full protocol pends
//     as a machine-check verdict.
//
// Unlike ITR, DME needs no warm-up and has no capacity misses — every trace
// is checked — but it pays for that with a full second execution.
type DME struct {
	core.Frame
	tab *program.DecodeTable
	off uint64

	// Shadow (dual) execution state: canonical registers and PC, memory
	// decorrelated through the offset bus.
	shadow    *isa.ArchState
	shadowMem *isa.Memory

	// resync re-anchors the shadow PC at the next committed trace (set
	// after a checkpoint rollback, whose horizon the shadow cannot rewind
	// to; see DiscardSignature). It is DME's only plain state beyond its
	// frame's.
	resync bool
}

// NewDME builds a divergent dual-execution detector for prog. The shadow
// starts at the program entry with empty decorrelated memory, mirroring the
// primary machine's reset state.
func NewDME(prog *program.Program, mode core.Mode, opts Options) (*DME, error) {
	f, err := core.NewFrame(mode)
	if err != nil {
		return nil, err
	}
	opts = opts.normalize()
	mem := isa.NewMemory()
	d := &DME{
		Frame:     f,
		tab:       prog.DecodeTable(),
		off:       opts.AddrOffset,
		shadow:    &isa.ArchState{Mem: offsetBus{mem: mem, off: opts.AddrOffset}},
		shadowMem: mem,
	}
	d.shadow.PC = prog.Entry
	return d, nil
}

// DispatchTrace performs the pre-commit compare: the trace's signature
// against the independent second decode of the same static trace.
func (d *DME) DispatchTrace(ev trace.Event) (seq uint64, ok bool) {
	if d.Full() {
		return 0, false
	}
	ref := d.tab.TraceSig(ev.StartPC)
	entry := core.ROBEntry{
		StartPC: ev.StartPC, Sig: ev.Sig, CachedSig: ref, Len: ev.Len,
	}
	if ev.Sig == ref {
		entry.State = sig.CtrlChk
	} else {
		entry.State = sig.CtrlChkRetry
	}
	d.Counters().Hits++ // the reference is always available; DME never misses
	return d.Dispatch(entry)
}

// CommitTraceEnd retires the head trace: the dual execution advances
// through the same trace in its decorrelated space and checks that the
// committed stream is where its PC says it should be.
func (d *DME) CommitTraceEnd() {
	if h := d.Head(); h != nil {
		d.advanceShadow(h)
	}
	d.Retire()
}

// advanceShadow runs the dual execution through the retiring trace.
func (d *DME) advanceShadow(h *core.ROBEntry) {
	if d.Pending() {
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
		det := core.Detection{
			StartPC:   h.StartPC,
			AccessSig: h.Sig,
			CachedSig: d.tab.TraceSig(h.StartPC),
			Seq:       d.HeadSeq(),
		}
		if !d.Observing() {
			d.Pend(det, d.Now())
			return
		}
		d.Detect(det)
		d.shadow.PC = h.StartPC // re-anchor and keep observing
	}
	var out isa.Outcome
	for i := 0; i < h.Len; i++ {
		pc := d.shadow.PC
		d.shadow.ExecClean(&out, d.tab.Word(pc), pc)
	}
	d.Counters().ReplayedInsts += int64(h.Len)
}

// Settled implements core.Detector. The dual execution shadows the committed
// stream, so a permanently diverged stream keeps tripping the shadow-PC
// check forever — DME can never settle it. On a non-diverged stream the
// shadow stays in lockstep (committed outcomes equal golden, faithful static
// decode), so only transients block settlement: a scheduled re-anchor, or
// the frame's own pending verdict, armed retry or mismatched in-flight
// entry.
func (d *DME) Settled(cleanCommit int64, diverged bool) bool {
	return !diverged && !d.resync && d.Quiet()
}

// DiscardSignature drops the pending verdict after a checkpoint rollback
// and schedules a shadow re-anchor: the dual execution cannot rewind its
// decorrelated memory to the checkpoint horizon, so it re-anchors its PC at
// the next committed trace and keeps checking control flow from there (a
// modeling simplification documented in DESIGN.md §9).
func (d *DME) DiscardSignature(pc uint64) {
	d.DropVerdict()
	d.resync = true
}

// DMEState is an immutable capture of a DME detector's mutable state: the
// frame's capture, the re-anchor flag, the shadow execution as an
// isa.Checkpoint and the address offset it was captured under (checked on
// restore). The shadow memory rides the paged store's copy-on-write
// snapshots, so captures are O(page table) like the machine's own.
type DMEState struct {
	core.FrameState

	resync bool
	shadow isa.Checkpoint
	off    uint64
}

// CaptureState snapshots the detector's mutable state.
func (d *DME) CaptureState() core.DetectorState {
	return &DMEState{
		FrameState: d.Capture(),
		resync:     d.resync,
		shadow:     d.shadow.Checkpoint(d.shadowMem),
		off:        d.off,
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
	if err := d.Restore(&s.FrameState); err != nil {
		return err
	}
	d.shadow.Rollback(d.shadowMem, &s.shadow)
	d.resync = s.resync
	return nil
}

var _ core.Detector = (*DME)(nil)
