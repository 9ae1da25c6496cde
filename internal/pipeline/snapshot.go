package pipeline

import (
	"fmt"
	"slices"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/obs"
	"itr/internal/program"
)

// Snapshot is a deep, immutable capture of a CPU's complete mutable state at
// a cycle boundary. The CPU's plain state (its embedded machine struct: the
// ROB and fetch-queue cursors, scheduler producers, rename and trace-forming
// accumulators, the coarse-grain checkpoint, the PC-fault schedule and every
// counter that feeds Result or Detail classification) is held by value in
// one field. Beside it are the parts that own heap storage: committed
// architectural state (an isa.Checkpoint), the speculative registers and
// store overlay, the predictor tables, the detector and rename-checker
// states, the ROB slots, the writeback wheel and the fetch-queue ring.
// Restoring a snapshot into a structurally identical CPU resumes execution
// bit-for-bit: the resumed machine's trajectory is indistinguishable from one
// that ran from cycle 0.
//
// Snapshots share no mutable state with the CPU that produced them: memory
// pages are shared copy-on-write (the producing CPU copies a page before its
// first post-capture store to it), the BTB and ITR-cache lines are held as
// immutable chunks shared with earlier snapshots wherever unchanged
// (cache.Chunks), and everything else is deep-copied. One snapshot may
// therefore be restored into many CPUs concurrently (the fault campaign's
// worker pool does exactly this).
type Snapshot struct {
	// Cycle is the cycle count at capture.
	Cycle int64
	// DecodeEvents is the decode-event count at capture (the fault
	// injector's fast-forward key).
	DecodeEvents int64
	// Committed is the committed-instruction count at capture.
	Committed int64

	cfg  Config           // normalized capture-time config, for structural validation
	prog *program.Program // the program the machine was running

	m machine // the CPU's plain state, by value

	arch isa.Checkpoint // committed registers, PC and memory

	specR, specF [isa.NumRegs]uint64
	overlay      []specWord // the overlay's live entries

	pred          predictorState
	det           core.DetectorState
	renameChecker core.DetectorState

	slots robSlots
	wheel [wheelSlots][]uint64
	fq    []fetchedInst // the whole ring; m.fqHead/m.fqTail index it
}

// MemPages returns the number of memory pages the snapshot references.
// Memory capture is copy-on-write, so most of these are shared by reference
// with earlier snapshots of the same machine (and with the live memory until
// it overwrites them). Summing MemPages over a snapshot series therefore
// counts shared pages once per snapshot; VisitMemPages deduplicates them.
func (s *Snapshot) MemPages() int { return s.arch.Mem.NumPages() }

// VisitMemPages calls fn with the ID of every memory page the snapshot
// references (campaign footprint reporting deduplicates page IDs across a
// snapshot series with it). Order is unspecified.
func (s *Snapshot) VisitMemPages(fn func(pageID uint64)) {
	s.arch.Mem.VisitPages(func(id uint64, _ []uint64) { fn(id) })
}

// ArchFork returns an independent functional machine seeded with the
// snapshot's committed architectural state, rolled back from its
// isa.Checkpoint: registers and PC copied, memory adopted copy-on-write from
// the snapshot's page table. The fork and any machine restored from the same
// snapshot share every untouched page by pointer, so comparing the two with
// isa.Memory.Equal degenerates to a generation-tag page diff: only pages
// either side dirtied since the snapshot are word-compared. The fault harness
// seeds each run's golden shadow with this fork, executes it alongside the
// machine's commits, and compares the two to prove re-convergence.
func (s *Snapshot) ArchFork() (*isa.ArchState, *isa.Memory) {
	m := isa.NewMemory()
	st := &isa.ArchState{Mem: m}
	st.Rollback(m, &s.arch)
	return st, m
}

// publishCowCopies publishes the memory's not-yet-reported copy-on-write
// page copies to the probe. Called at run boundaries and around
// snapshot/restore, so COW accounting stays off the per-store hot path.
func (c *CPU) publishCowCopies(p *Probe) {
	if n := c.mem.CopiedPages(); n > c.memCopiedSeen {
		delta := n - c.memCopiedSeen
		c.memCopiedSeen = n
		p.SnapshotPagesCopied.Add(delta)
		p.SnapshotBytesCopied.Add(delta * isa.PageBytes)
	}
}

// Snapshot captures the CPU's complete mutable state. Call it only between
// cycles (i.e. outside stepCycle — after Run/RunUntilDecode returns). The
// plain state is one struct copy; only heap-owning state is copied
// explicitly.
//
// Memory is captured copy-on-write: the snapshot adopts the CPU's page table
// by reference (no page copies), and the CPU's next store to any captured
// page copies it first. Capture cost is therefore O(page-table), and the
// copying the machine pays afterwards scales with the pages it actually
// dirties before the next boundary, not with its whole footprint. The BTB
// and the ITR-cache lines are compared chunk by chunk with their last sync
// point (the previous capture, or the snapshot last restored), and only the
// chunks that changed are copied.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		Cycle:        c.cycle,
		DecodeEvents: c.decodeEvents,
		Committed:    c.committedCount,

		cfg:  c.cfg,
		prog: c.prog,
		m:    c.machine,
		arch: c.committed.Checkpoint(c.mem),

		specR:   c.spec.arch.R,
		specF:   c.spec.arch.F,
		overlay: c.spec.overlay.live(),

		pred:  c.pred.capture(),
		slots: c.slots.clone(),
		fq:    slices.Clone(c.fq),
	}
	for i := range c.wheel {
		s.wheel[i] = slices.Clone(c.wheel[i])
	}
	if c.det != nil {
		s.det = c.det.CaptureState()
	}
	if c.renameChecker != nil {
		s.renameChecker = c.renameChecker.CaptureState()
	}
	if p := c.cfg.Probe; p != nil {
		p.SnapshotCaptures.Add(1)
		p.SnapshotPagesShared.Add(int64(s.arch.Mem.SharedPages()))
		c.publishCowCopies(p)
		shared, copied := s.pred.btb.Sharing()
		for _, st := range []core.DetectorState{s.det, s.renameChecker} {
			if cs, ok := st.(*core.CheckerState); ok { // ITR-cache lines
				sh, cp := cs.Sharing()
				shared, copied = shared+sh, copied+cp
			}
		}
		p.SnapshotChunksShared.Add(int64(shared))
		p.SnapshotChunksCopied.Add(int64(copied))
	}
	c.cfg.Trace.Emit(obs.EvSnapshotCapture, c.cycle, int64(s.arch.Mem.NumPages()))
	return s
}

// Restore overwrites the CPU's mutable state with the snapshot's, preserving
// the CPU's identity: its memory and checker cache pointers stay valid, and
// installed hooks/observers are untouched. The plain state is one struct
// assignment; heap-owning state is copied into the CPU's existing storage.
// Memory is adopted copy-on-write — pages are shared by reference and the
// CPU copies a page on its first store to it — so restore cost scales with
// the pages the CPU had dirtied since its last synchronization with this
// snapshot (for a fresh CPU: one page-table walk, zero page copies), not
// with the benchmark's footprint. The CPU must run the snapshot's program,
// and its configuration must structurally match the snapshot's; only ITRMode
// may differ — mode is policy, not state, and fault-free trajectories are
// identical across modes. The snapshot is only read, so one snapshot may be
// restored into many CPUs concurrently.
func (c *CPU) Restore(s *Snapshot) error {
	if s.prog != c.prog {
		return fmt.Errorf("pipeline: snapshot was taken on a different program than the CPU runs")
	}
	want, have := s.cfg, c.cfg
	want.ITRMode, have.ITRMode = 0, 0
	// The probe and trace ring are observability, not machine state:
	// snapshots restore across CPUs wired to different (or no) probes.
	want.Probe, have.Probe = nil, nil
	want.Trace, have.Trace = nil, nil
	if want != have {
		return fmt.Errorf("pipeline: snapshot config %+v does not structurally match CPU config %+v", s.cfg, c.cfg)
	}

	if c.det != nil {
		if err := c.det.RestoreState(s.det); err != nil {
			return fmt.Errorf("pipeline: restore detector: %w", err)
		}
		// Re-seed the probe's detection delta base and the stamp cursor:
		// the detector's mismatch counter just rewound to the snapshot's
		// value, and stamps of the abandoned trajectory are meaningless.
		c.detDetectionsSeen = c.frame.Mismatches()
		c.detStamps = c.detStamps[:0]
		c.detStamped = c.detDetectionsSeen
	}
	if c.renameChecker != nil {
		if err := c.renameChecker.RestoreState(s.renameChecker); err != nil {
			return fmt.Errorf("pipeline: restore rename checker: %w", err)
		}
	}

	c.machine = s.m
	c.committed.Rollback(c.mem, &s.arch)
	c.spec.arch.R = s.specR
	c.spec.arch.F = s.specF
	c.spec.overlay.restore(s.overlay)
	c.pred.restore(&s.pred)
	c.slots.copyFrom(&s.slots)
	for i := range c.wheel {
		c.wheel[i] = append(c.wheel[i][:0], s.wheel[i]...)
	}
	copy(c.fq, s.fq) // same ring length: the configs matched

	if p := c.cfg.Probe; p != nil {
		p.SnapshotRestores.Add(1)
		c.publishCowCopies(p)
	}
	c.cfg.Trace.Emit(obs.EvSnapshotRestore, s.Cycle, 0)
	return nil
}

// CycleCount returns the cycle count so far (snapshot consumers size their
// remaining budget with it).
func (c *CPU) CycleCount() int64 { return c.cycle }
