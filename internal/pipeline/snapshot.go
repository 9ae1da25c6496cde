package pipeline

import (
	"fmt"

	"itr/internal/checkpoint"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/obs"
	"itr/internal/program"
	"itr/internal/trace"
)

// Snapshot is a deep, immutable capture of a CPU's complete mutable state at
// a cycle boundary: architectural state (registers + memory), the
// microarchitectural window (ROB, fetch queue, scheduler producers,
// speculative view), predictor tables, ITR checker and checkpoint state, and
// every counter that feeds Result or Detail classification. Restoring a
// snapshot into a structurally identical CPU resumes execution bit-for-bit:
// the resumed machine's trajectory is indistinguishable from one that ran
// from cycle 0.
//
// Snapshots share no mutable state with the CPU that produced them: memory
// pages are shared copy-on-write (the producing CPU copies a page before its
// first post-capture store to it), everything else is deep-copied. One
// snapshot may therefore be restored into many CPUs concurrently (the fault
// campaign's worker pool does exactly this).
type Snapshot struct {
	// Cycle is the cycle count at capture.
	Cycle int64
	// DecodeEvents is the decode-event count at capture (the fault
	// injector's fast-forward key).
	DecodeEvents int64
	// Committed is the committed-instruction count at capture (the golden
	// stream cursor's seek position).
	Committed int64

	cfg  Config           // normalized capture-time config, for structural validation
	prog *program.Program // the program the machine was running

	mem          *isa.Memory
	regsR, regsF [isa.NumRegs]uint64
	pc           uint64

	specR, specF [isa.NumRegs]uint64
	overlay      map[uint64]specWord

	predBTB     []btbEntry
	predGshare  []uint8
	predHistory uint64
	predClock   uint64

	det           core.DetectorState
	renameChecker core.DetectorState
	renameSig     renameState
	ckpt          *checkpoint.State
	former        trace.Former

	slots            robSlots
	robHead, robTail uint64
	wheel            [wheelSlots][]uint64
	prod             [2][isa.NumRegs]producer
	fetchQ           []fetchedInst
	fetchPC          uint64
	haltSeen         bool

	wrongPathFrom  uint64
	wrongPathArmed bool

	lastCommitCycle int64
	ckptRollbacks   int64
	ckptDeclined    int64
	redundancy      RedundancyStats
	expectedPC      uint64
	spcFired        int64
	mispredicts     int64
	itrFlushes      int64
	tac             TACStats

	pcFaultCycle int64
	pcFaultBit   int
	pcFaultDone  bool

	terminated  bool
	termination Termination
}

// MemPages returns the number of memory pages the snapshot references.
// Memory capture is copy-on-write, so most of these are shared by reference
// with earlier snapshots of the same machine (and with the live memory until
// it overwrites them); only MemOwnedPages of them were first materialized by
// this snapshot. Summing MemPages over a snapshot series therefore counts
// shared pages once per snapshot; summing MemOwnedPages approximates the
// series' resident footprint.
func (s *Snapshot) MemPages() int { return s.mem.NumPages() }

// MemOwnedPages returns the number of memory pages first captured by this
// snapshot: the pages dirtied since the previous snapshot of the same
// machine (for the first snapshot, the whole footprint). The remaining
// MemPages - MemOwnedPages pages are held by reference only.
func (s *Snapshot) MemOwnedPages() int { return s.mem.OwnedPages() }

// VisitMemPages calls fn with the ID of every memory page the snapshot
// references (campaign footprint reporting deduplicates page IDs across a
// snapshot series with it). Order is unspecified.
func (s *Snapshot) VisitMemPages(fn func(pageID uint64)) {
	s.mem.VisitPages(func(id uint64, _ []uint64) { fn(id) })
}

// ArchFork returns an independent functional machine seeded with the
// snapshot's committed architectural state: registers and PC copied, memory
// adopted copy-on-write from the snapshot's page table. The fork and any
// machine restored from the same snapshot share every untouched page by
// pointer, so comparing the two with isa.Memory.Equal degenerates to a
// generation-tag page diff: only pages either side dirtied since the
// snapshot are word-compared. The decided-outcome fault classifier walks
// this fork along the golden commit stream to prove re-convergence.
func (s *Snapshot) ArchFork() (*isa.ArchState, *isa.Memory) {
	m := isa.NewMemory()
	m.CopyFrom(s.mem)
	return &isa.ArchState{R: s.regsR, F: s.regsF, PC: s.pc, Mem: m}, m
}

// publishCowCopies publishes the memory's not-yet-reported copy-on-write
// page copies to the probe. Called at run boundaries and around
// snapshot/restore, so COW accounting stays off the per-store hot path.
func (c *CPU) publishCowCopies(p *Probe) {
	if n := c.mem.CopiedPages(); n > c.memCopiedSeen {
		delta := n - c.memCopiedSeen
		c.memCopiedSeen = n
		p.SnapshotPagesCopied.AddAt(c.obsShard, delta)
		p.SnapshotBytesCopied.AddAt(c.obsShard, delta*isa.PageBytes)
	}
}

// Snapshot captures the CPU's complete mutable state. Call it only between
// cycles (i.e. outside stepCycle — after Run/RunUntilDecode returns).
//
// Memory is captured copy-on-write: the snapshot adopts the CPU's page table
// by reference (no page copies), and the CPU's next store to any captured
// page copies it first. Capture cost is therefore O(page-table), and the
// copying the machine pays afterwards scales with the pages it actually
// dirties before the next boundary, not with its whole footprint.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		Cycle:        c.cycle,
		DecodeEvents: c.decodeEvents,
		Committed:    c.committedCount,

		cfg:  c.cfg,
		prog: c.prog,

		mem:   c.mem.Snapshot(),
		regsR: c.committed.R,
		regsF: c.committed.F,
		pc:    c.committed.PC,

		specR:   c.spec.arch.R,
		specF:   c.spec.arch.F,
		overlay: make(map[uint64]specWord, len(c.spec.overlay.words)),

		predBTB:     make([]btbEntry, len(c.pred.btb)),
		predGshare:  make([]uint8, len(c.pred.gshare)),
		predHistory: c.pred.history,
		predClock:   c.pred.clock,

		renameSig: c.renameSig,
		former:    c.former,

		slots:    c.slots.clone(),
		robHead:  c.robHead,
		robTail:  c.robTail,
		prod:     c.prod,
		fetchQ:   make([]fetchedInst, 0, c.fqLen()),
		fetchPC:  c.fetchPC,
		haltSeen: c.haltSeen,

		wrongPathFrom:  c.wrongPathFrom,
		wrongPathArmed: c.wrongPathArmed,

		lastCommitCycle: c.lastCommitCycle,
		ckptRollbacks:   c.ckptRollbacks,
		ckptDeclined:    c.ckptDeclined,
		redundancy:      c.redundancy,
		expectedPC:      c.expectedPC,
		spcFired:        c.spcFired,
		mispredicts:     c.mispredicts,
		itrFlushes:      c.itrFlushes,
		tac:             c.tac,

		pcFaultCycle: c.pcFaultCycle,
		pcFaultBit:   c.pcFaultBit,
		pcFaultDone:  c.pcFaultDone,

		terminated:  c.terminated,
		termination: c.termination,
	}
	for i := range c.wheel {
		s.wheel[i] = append([]uint64(nil), c.wheel[i]...)
	}
	for k, v := range c.spec.overlay.words {
		s.overlay[k] = v
	}
	// Linearize the fetch-queue ring oldest-first.
	for i := c.fqHead; i != c.fqTail; i++ {
		s.fetchQ = append(s.fetchQ, c.fq[i&c.fqMask])
	}
	copy(s.predBTB, c.pred.btb)
	copy(s.predGshare, c.pred.gshare)
	if c.det != nil {
		s.det = c.det.CaptureState()
	}
	if c.renameChecker != nil {
		s.renameChecker = c.renameChecker.CaptureState()
	}
	if c.ckpt != nil {
		s.ckpt = c.ckpt.CaptureState()
	}
	if p := c.cfg.Probe; p != nil {
		p.SnapshotCaptures.AddAt(c.obsShard, 1)
		p.SnapshotPagesShared.AddAt(c.obsShard, int64(s.mem.SharedPages()))
		c.publishCowCopies(p)
	}
	c.cfg.Trace.Emit(obs.EvSnapshotCapture, c.cycle, int64(s.mem.NumPages()))
	return s
}

// Restore overwrites the CPU's mutable state with the snapshot's, preserving
// the CPU's identity: its memory, checker cache, and checkpoint-manager
// pointers stay valid, and installed hooks/observers are untouched. Memory
// is adopted copy-on-write — pages are shared by reference and the CPU
// copies a page on its first store to it — so restore cost scales with the
// pages the CPU had dirtied since its last synchronization with this
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

	c.mem.CopyFrom(s.mem)
	c.committed.R = s.regsR
	c.committed.F = s.regsF
	c.committed.PC = s.pc

	c.spec.arch.R = s.specR
	c.spec.arch.F = s.specF
	c.spec.overlay.words = make(map[uint64]specWord, len(s.overlay))
	for k, v := range s.overlay {
		c.spec.overlay.words[k] = v
	}

	copy(c.pred.btb, s.predBTB)
	copy(c.pred.gshare, s.predGshare)
	c.pred.history = s.predHistory
	c.pred.clock = s.predClock

	if c.det != nil {
		if err := c.det.RestoreState(s.det); err != nil {
			return fmt.Errorf("pipeline: restore detector: %w", err)
		}
		// Re-seed the probe's detection delta base and the stamp cursor:
		// the detector's mismatch counter just rewound to the snapshot's
		// value, and stamps of the abandoned trajectory are meaningless.
		c.detDetectionsSeen = c.det.Stats().Mismatches
		c.detStamps = c.detStamps[:0]
		c.detStamped = c.detDetectionsSeen
	}
	if c.renameChecker != nil {
		if err := c.renameChecker.RestoreState(s.renameChecker); err != nil {
			return fmt.Errorf("pipeline: restore rename checker: %w", err)
		}
	}
	if c.ckpt != nil {
		c.ckpt.RestoreState(s.ckpt)
	}
	c.renameSig = s.renameSig
	c.former = s.former

	c.slots.copyFrom(&s.slots)
	c.robHead = s.robHead
	c.robTail = s.robTail
	for i := range c.wheel {
		c.wheel[i] = append(c.wheel[i][:0], s.wheel[i]...)
	}
	c.prod = s.prod
	c.fqHead, c.fqTail = 0, uint64(len(s.fetchQ))
	copy(c.fq, s.fetchQ) // len(s.fetchQ) <= cfg.FetchQueue <= len(c.fq)
	c.fetchPC = s.fetchPC
	c.haltSeen = s.haltSeen

	c.wrongPathFrom = s.wrongPathFrom
	c.wrongPathArmed = s.wrongPathArmed

	c.cycle = s.Cycle
	c.lastCommitCycle = s.lastCommitCycle
	c.ckptRollbacks = s.ckptRollbacks
	c.ckptDeclined = s.ckptDeclined
	c.redundancy = s.redundancy
	c.decodeEvents = s.DecodeEvents
	c.committedCount = s.Committed
	c.expectedPC = s.expectedPC
	c.spcFired = s.spcFired
	c.mispredicts = s.mispredicts
	c.itrFlushes = s.itrFlushes
	c.tac = s.tac

	c.pcFaultCycle = s.pcFaultCycle
	c.pcFaultBit = s.pcFaultBit
	c.pcFaultDone = s.pcFaultDone

	c.terminated = s.terminated
	c.termination = s.termination
	if p := c.cfg.Probe; p != nil {
		p.SnapshotRestores.AddAt(c.obsShard, 1)
		c.publishCowCopies(p)
	}
	c.cfg.Trace.Emit(obs.EvSnapshotRestore, s.Cycle, 0)
	return nil
}

// CycleCount returns the cycle count so far (snapshot consumers size their
// remaining budget with it).
func (c *CPU) CycleCount() int64 { return c.cycle }
