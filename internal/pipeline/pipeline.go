package pipeline

import (
	"fmt"
	"math/bits"

	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/isa"
	"itr/internal/obs"
	"itr/internal/program"
	"itr/internal/trace"
)

// Config sizes the core. Zero fields take DefaultConfig values.
type Config struct {
	FetchWidth  int // instructions fetched per cycle
	IssueWidth  int // instructions issued per cycle
	CommitWidth int // instructions committed per cycle
	ROBSize     int
	IssueWindow int // scheduler window depth (entries scanned for issue)
	FetchQueue  int

	BTBEntries int
	BTBAssoc   int
	GshareBits uint

	// WatchdogCycles is the deadlock threshold: cycles without a commit
	// before the watchdog check fires (paper Section 4's "wdog").
	WatchdogCycles int64

	// ITREnabled attaches the fault-detection backend; ITR/ITRMode
	// configure it (the cache geometry only applies to the ITR backend;
	// the mode applies to all of them).
	ITREnabled bool
	ITR        core.Config
	ITRMode    core.Mode
	// Detector names the detection backend driven through core.Detector:
	// "" or "itr" (the default ITR checker, bit-identical to the
	// pre-interface pipeline), "reptfd" (chunked replay) or "dme"
	// (divergent dual execution). See internal/detect.
	Detector string
	// DetectorOpts tunes the non-ITR backends (zero value = defaults).
	DetectorOpts detect.Options

	// CheckpointEnabled attaches the coarse-grain checkpointing extension
	// of Section 2.3: machine checks roll back to the last checkpoint
	// instead of aborting the program, whenever the rollback is provably
	// sufficient.
	CheckpointEnabled bool
	// CheckpointIntervalCycles is how often a checkpoint is taken (default
	// 4096).
	CheckpointIntervalCycles int64

	// Redundancy selects a conventional frontend-protection baseline
	// (structural duplication or time redundancy) to run instead of ITR.
	Redundancy RedundancyMode

	// RenameITREnabled attaches the rename-protection extension: a second
	// ITR checker over per-trace signatures of the rename-map indexes
	// (paper Section 1), covering faults the frontend signature cannot see.
	RenameITREnabled bool

	// Probe, when non-nil, receives cross-run telemetry (cycles simulated,
	// decode events, snapshot restores). One probe may be shared by many
	// CPUs running concurrently; it never affects simulation results.
	Probe *Probe

	// Trace, when non-nil, receives cycle-stamped machine events (snapshot
	// capture/restore, slow detector polls, detections, retry rollbacks)
	// on a bounded ring. Rings are single-writer: share a ring between
	// CPUs only if they run on the same goroutine (the campaign workers
	// give each arena its own). Like Probe, it never affects simulation.
	Trace *obs.Ring
}

// Probe accumulates telemetry across pipeline runs. Fields are lock-free
// counters (obs.Counter), so a single probe can be shared by every CPU of a
// campaign and read live by a progress ticker or /metrics scrape. Counters are updated at run boundaries (end
// of each Run/RunUntilDecode call and each Restore), not per cycle, so
// probing is free on the hot path.
type Probe struct {
	// Cycles is the total number of cycles simulated.
	Cycles obs.Counter
	// DecodeEvents is the total number of decode events observed.
	DecodeEvents obs.Counter
	// SnapshotRestores counts Restore calls (campaign fast-forwards).
	SnapshotRestores obs.Counter
	// SnapshotCaptures counts Snapshot calls (pilot snapshot series).
	SnapshotCaptures obs.Counter
	// SnapshotPagesShared counts memory pages captured by reference at
	// snapshot boundaries — pages a pre-COW deep copy would have duplicated.
	SnapshotPagesShared obs.Counter
	// SnapshotPagesCopied counts memory pages physically copied by the
	// copy-on-write write path (first store to a page shared with a
	// snapshot); SnapshotBytesCopied is the same in bytes. Together they are
	// the total page-copying work the snapshot machinery actually performed,
	// which scales with pages dirtied between boundaries rather than with
	// the benchmark's whole footprint.
	SnapshotPagesCopied obs.Counter
	SnapshotBytesCopied obs.Counter
	// SnapshotChunksShared counts the BTB and ITR-cache line chunks
	// (cache.Chunks) captures took by reference from each table's previous
	// sync point because they were unchanged; SnapshotChunksCopied counts
	// the chunks they copied.
	SnapshotChunksShared obs.Counter
	SnapshotChunksCopied obs.Counter
	// DetectorPolls counts commit-time detector polls (one per committing
	// instruction while a detector is attached).
	DetectorPolls obs.Counter
	// DetectorDetections counts mismatches the detector recorded.
	DetectorDetections obs.Counter
}

// DefaultConfig returns a 4-wide core in the spirit of the MIPS R10K with
// the paper's headline ITR cache (2-way, 1024 signatures).
func DefaultConfig() Config {
	return Config{
		FetchWidth:     4,
		IssueWidth:     4,
		CommitWidth:    4,
		ROBSize:        128,
		IssueWindow:    48,
		FetchQueue:     16,
		BTBEntries:     1024,
		BTBAssoc:       2,
		GshareBits:     12,
		WatchdogCycles: 8192,
		ITREnabled:     true,
		ITR:            core.DefaultConfig(),
		ITRMode:        core.ModeFull,
	}
}

func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.FetchWidth == 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = d.IssueWidth
	}
	if c.CommitWidth == 0 {
		c.CommitWidth = d.CommitWidth
	}
	if c.ROBSize == 0 {
		c.ROBSize = d.ROBSize
	}
	if c.IssueWindow == 0 {
		c.IssueWindow = d.IssueWindow
	}
	if c.FetchQueue == 0 {
		c.FetchQueue = d.FetchQueue
	}
	if c.BTBEntries == 0 {
		c.BTBEntries = d.BTBEntries
	}
	if c.BTBAssoc == 0 {
		c.BTBAssoc = d.BTBAssoc
	}
	if c.GshareBits == 0 {
		c.GshareBits = d.GshareBits
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = d.WatchdogCycles
	}
	if c.ITRMode == 0 {
		c.ITRMode = core.ModeFull
	}
	if c.CheckpointIntervalCycles == 0 {
		c.CheckpointIntervalCycles = 4096
	}
	return c
}

// FaultHook lets a fault injector corrupt the decode signals of one (or
// more) dynamic decode events. decodeIndex counts every decode, including
// wrong-path instructions — exactly the population the paper injects into
// (campaigns ignore wrongPath; targeted tests may gate on it).
type FaultHook func(decodeIndex int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals

// CommitObserver sees every committed instruction in order (the fault
// harness's golden shadow attaches here). The outcome pointer aliases pipeline-internal
// storage and is valid only for the duration of the call: observers that
// retain the outcome must copy it.
type CommitObserver func(pc uint64, o *isa.Outcome)

// Termination says why a run ended.
type Termination int

// Termination causes.
const (
	TermBudget       Termination = iota + 1 // cycle budget exhausted
	TermHalt                                // program executed halt
	TermMachineCheck                        // ITR raised a machine check (program aborted)
	TermDeadlock                            // watchdog fired: no commit for WatchdogCycles
)

func (t Termination) String() string {
	switch t {
	case TermBudget:
		return "budget"
	case TermHalt:
		return "halt"
	case TermMachineCheck:
		return "machine-check"
	case TermDeadlock:
		return "deadlock"
	default:
		return fmt.Sprintf("termination(%d)", int(t))
	}
}

// Result summarizes a pipeline run.
type Result struct {
	Cycles       int64
	Committed    int64
	DecodeEvents int64
	Termination  Termination
	// SpcFired counts sequential-PC check violations observed at commit
	// (Section 2.5 / Section 4's "spc" check).
	SpcFired int64
	// Mispredicts counts resolved branch mispredictions (repair events).
	Mispredicts int64
	// ITRFlushes counts retry flushes performed by the checker.
	ITRFlushes int64
	// CheckpointsTaken counts coarse-grain checkpoints established
	// (Section 2.3 extension).
	CheckpointsTaken int64
	// CheckpointRollbacks counts machine checks converted into coarse-grain
	// checkpoint rollbacks.
	CheckpointRollbacks int64
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

type fetchedInst struct {
	pc       uint64
	predNext uint64
	taken    bool
}

type producer struct {
	valid bool
	seq   uint64
}

// CPU is the cycle-level core. Construct with New; one CPU runs one program.
type CPU struct {
	cfg    Config
	prog   *program.Program
	decode *program.DecodeTable // memoized per-static-instruction signals

	mem       *isa.Memory
	committed *isa.ArchState
	spec      *specState

	pred *Predictor
	// det is the attached detection backend; every backend, the default ITR
	// checker included, is driven through the interface. frame is its
	// embedded in-flight protocol, taken once at construction so the
	// per-commit calls (PollQuick, SetNow) are direct and inline.
	det           core.Detector
	frame         *core.Frame
	renameChecker *core.Checker

	slots   robSlots // SoA uop columns; ring length is a power of two ≥ cfg.ROBSize
	robMask uint64
	robCap  int // logical capacity (cfg.ROBSize)
	// wheel is the completion calendar: bucket doneCycle&wheelMask holds the
	// sequence numbers finishing that cycle, so writeback touches only the
	// uops completing now instead of rescanning everything in flight. Stale
	// entries (squashed uops, possibly with their slot since recycled) are
	// filtered at pop by the issued/done bits and an exact doneCycle match.
	wheel       [wheelSlots][]uint64
	wbCompleted []uint64 // writeback scratch; logically empty between cycles

	fq     []fetchedInst // fetch-queue ring; power-of-two length ≥ cfg.FetchQueue
	fqMask uint64

	machine

	faultHook       FaultHook
	renameFaultHook RenameFaultHook
	observer        CommitObserver
	ckptObserver    CheckpointObserver

	// memCopiedSeen is the memory's lifetime COW page-copy count already
	// published to the probe; run boundaries publish the delta.
	memCopiedSeen int64
	// detPolls counts commit-time detector polls for the probe; like the
	// COW counters it is published as a delta at run boundaries. The
	// detection count is deltaed against the detector's own (snapshot-
	// rewindable) mismatch counter, re-seeded on Restore.
	detPolls          int64
	detPollsSeen      int64
	detDetectionsSeen int64

	// detStamps timestamps each detector mismatch observed by this machine
	// since construction or the last Restore; detStamped is the detector
	// mismatch count already stamped (rewound alongside the detector).
	detStamps  []DetectionStamp
	detStamped int64
}

// machine is the CPU's plain mutable state: the fields a Snapshot captures
// with one assignment and Restore puts back with one assignment. State that
// owns heap storage (memory, the speculative view, predictor tables,
// detector states, ROB slots, the writeback wheel and the fetch-queue ring)
// stays on CPU and keeps explicit copy code in Snapshot/Restore.
//
// machine must stay comparable: no slices, maps or pointers to mutable data
// (the frozen memory inside an isa.Checkpoint is immutable, so it is fine).
// The snapshot tests compare a restored machine with the captured one using
// ==, so a slice field added here fails to compile.
type machine struct {
	renameSig renameState
	former    trace.Former

	// ckpt is the coarse-grain checkpoint (Section 2.3 extension) taken at
	// committed-instruction count ckptCommit; ckpt.Mem is nil until the
	// first take.
	ckpt       isa.Checkpoint
	ckptCommit int64

	robHead, robTail uint64

	prod [2][isa.NumRegs]producer

	fqHead, fqTail uint64
	fetchPC        uint64
	haltSeen       bool

	wrongPathFrom  uint64
	wrongPathArmed bool

	cycle           int64
	lastCommitCycle int64
	ckptTaken       int64
	ckptRollbacks   int64
	redundancy      RedundancyStats
	decodeEvents    int64
	committedCount  int64
	expectedPC      uint64
	spcFired        int64
	mispredicts     int64
	itrFlushes      int64

	pcFaultCycle int64 // schedule: flip fetch PC at this cycle (0 = none)
	pcFaultBit   int
	pcFaultDone  bool

	terminated  bool
	termination Termination
}

// DetectionStamp records the machine time at which one detector mismatch
// surfaced: the cycle count and committed-instruction count at the slow
// poll or trace retirement that recorded it. Fault studies subtract the
// injection point to get detection latency.
type DetectionStamp struct {
	Cycle     int64
	Committed int64
}

// DetectionStamps returns the stamps of detector mismatches observed since
// construction or the last Restore, in detection order. The slice aligns
// with the tail of Detector().Detections(): a restored detector may carry
// pre-snapshot detections the recycled machine never observed, but
// campaign snapshots are fault-free, so there stamp i is detection i.
func (c *CPU) DetectionStamps() []DetectionStamp { return c.detStamps }

// New builds a CPU over prog with the given configuration.
func New(prog *program.Program, cfg Config) (*CPU, error) {
	cfg = cfg.normalize()
	c := &CPU{
		cfg:     cfg,
		prog:    prog,
		decode:  prog.DecodeTable(),
		mem:     isa.NewMemory(),
		pred:    NewPredictor(cfg.BTBEntries, cfg.BTBAssoc, cfg.GshareBits),
		slots:   newRobSlots(nextPow2(cfg.ROBSize)),
		robCap:  cfg.ROBSize,
		fq:      make([]fetchedInst, nextPow2(cfg.FetchQueue)),
		machine: machine{fetchPC: prog.Entry, expectedPC: prog.Entry},
	}
	c.robMask = uint64(c.slots.capacity - 1)
	c.fqMask = uint64(len(c.fq) - 1)
	c.committed = &isa.ArchState{Mem: c.mem, PC: prog.Entry}
	c.spec = newSpecState(c.committed, c.mem, c.slots.capacity)
	if cfg.ITREnabled {
		det, err := detect.New(cfg.Detector, prog, cfg.ITR, cfg.ITRMode, cfg.DetectorOpts)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		c.det = det
		c.frame = det.Base()
	}
	if cfg.RenameITREnabled {
		if !cfg.ITREnabled {
			return nil, fmt.Errorf("pipeline: rename ITR requires the main ITR checker")
		}
		rc, err := core.NewChecker(cfg.ITR, cfg.ITRMode)
		if err != nil {
			return nil, fmt.Errorf("pipeline: rename checker: %w", err)
		}
		c.renameChecker = rc
	}
	if cfg.CheckpointEnabled && !cfg.ITREnabled {
		return nil, fmt.Errorf("pipeline: checkpointing requires a detector (rollback is decided by the detector's SignatureStamp)")
	}
	return c, nil
}

// SetFaultHook installs the decode-signal corruption hook.
func (c *CPU) SetFaultHook(h FaultHook) { c.faultHook = h }

// SchedulePCFault arms a single-event upset on the fetch PC (Section 2.5):
// at the first fetch at or after the given cycle, bit is flipped in the PC
// used to fetch. Depending on where the flip lands relative to trace
// boundaries, the fault is caught by the ITR signature, by branch
// resolution, by the sequential-PC check, or not at all.
func (c *CPU) SchedulePCFault(cycle int64, bit int) {
	c.pcFaultCycle = cycle
	c.pcFaultBit = bit & 63
	c.pcFaultDone = false
}

// PCFaultDecode reports whether the scheduled PC fault has fired and, once
// it has, a bound on the decode index of the first instruction fetched
// through the flipped PC: that instruction, if it is ever decoded, is
// decoded at or below the returned index. It has been decoded already, or
// it waits in the fetch queue behind instructions that each take at most
// the decode events one instruction can. The bound is tightest right after
// the flip.
func (c *CPU) PCFaultDecode() (int64, bool) {
	return c.decodeEvents + int64(c.fqLen())*c.MaxDecodesPerCycle()/int64(c.cfg.FetchWidth), c.pcFaultDone
}

// SetCommitObserver installs the committed-instruction observer.
func (c *CPU) SetCommitObserver(o CommitObserver) { c.observer = o }

// CheckpointObserver is notified of checkpoint lifecycle events:
// taken == true when a checkpoint is established, taken == false when the
// machine rolls back to it. Golden-stream comparators use this to rewind
// their position in the reference alongside the machine.
type CheckpointObserver func(taken bool)

// SetCheckpointObserver installs the checkpoint lifecycle observer.
func (c *CPU) SetCheckpointObserver(o CheckpointObserver) { c.ckptObserver = o }

// checkpointRecover converts a machine check into a rollback to the last
// coarse-grain checkpoint, when one has been taken: the committed state is
// restored, the offending trace's (faulty) ITR cache line is discarded so
// re-execution installs a fresh signature, and fetch restarts at the
// checkpoint PC.
func (c *CPU) checkpointRecover(faultyTracePC uint64) (restartPC uint64, ok bool) {
	if c.ckpt.Mem == nil {
		return 0, false
	}
	// Rollback is sufficient only when the faulty instance committed after
	// the checkpoint: the stamp of the detector's evidence proves it.
	if stamp, found := c.det.SignatureStamp(faultyTracePC); found && stamp < c.ckptCommit {
		return 0, false
	}
	c.committed.Rollback(c.mem, &c.ckpt)
	c.ckptRollbacks++
	c.det.DiscardSignature(faultyTracePC)
	c.frame.FlushAll()
	if c.renameChecker != nil {
		c.renameChecker.DiscardSignature(faultyTracePC)
		c.renameChecker.FlushAll()
	}
	if c.ckptObserver != nil {
		c.ckptObserver(false)
	}
	// Replayed instructions must not be double-counted by consumers of
	// CommittedInsts; rewinding the counter keeps commit counts consistent
	// with the architectural state. The sequential-PC chain also restarts
	// at the checkpoint.
	c.committedCount = c.ckptCommit
	c.expectedPC = c.ckpt.PC
	return c.ckpt.PC, true
}

// Checker exposes the ITR checker when the attached backend is the default
// ITR one (nil when detection is disabled or a rival backend is attached).
// ITR-specific studies and tests reach the cache through it; backend-generic
// code uses Detector instead.
func (c *CPU) Checker() *core.Checker {
	ck, _ := c.det.(*core.Checker)
	return ck
}

// Detector exposes the attached detection backend (nil when disabled).
func (c *CPU) Detector() core.Detector { return c.det }

// Redundancy returns the baseline-comparator statistics (zero when
// RedundancyNone).
func (c *CPU) Redundancy() RedundancyStats { return c.redundancy }

// RenameChecker exposes the rename-protection checker (nil when disabled).
func (c *CPU) RenameChecker() *core.Checker { return c.renameChecker }

// Committed exposes the committed architectural state.
func (c *CPU) Committed() *isa.ArchState { return c.committed }

// DecodeEvents returns the number of decode events so far (the fault
// injector samples injection points from this space).
func (c *CPU) DecodeEvents() int64 { return c.decodeEvents }

// MaxDecodesPerCycle bounds the decode events one cycle adds: dispatch
// decodes at most FetchWidth instructions a cycle, and a redundancy mode
// decodes each of them twice.
func (c *CPU) MaxDecodesPerCycle() int64 {
	if c.cfg.Redundancy != RedundancyNone {
		return 2 * int64(c.cfg.FetchWidth)
	}
	return int64(c.cfg.FetchWidth)
}

// CommittedInsts returns the number of committed instructions so far.
func (c *CPU) CommittedInsts() int64 { return c.committedCount }

// OldestInFlightDecode returns the decode-event index of the oldest
// in-flight (dispatched, not yet committed) uop; ok is false when the ROB is
// empty. Decode indices are assigned in allocation order, so every in-flight
// uop's index is at least the returned one — the decided-outcome fault
// classifier uses that to prove a corrupted decode has fully drained from
// the window.
func (c *CPU) OldestInFlightDecode() (idx int64, ok bool) {
	if c.robLen() == 0 {
		return 0, false
	}
	return int64(c.slots.decodeIndex[c.slot(c.robHead)]), true
}

// Run executes until the cycle budget is exhausted or the machine
// terminates, returning the run summary. Run may be called repeatedly to
// extend a run; the budget is per-call.
func (c *CPU) Run(maxCycles int64) Result {
	return c.RunUntilDecode(maxCycles, -1)
}

// RunUntilDecode is Run with an additional stop condition: execution pauses
// at the first cycle boundary where the decode-event count has reached
// stopDecode (negative disables the condition). The snapshot pilot uses it
// to pause at snapshot intervals; the machine is left resumable, so a
// further Run/RunUntilDecode call continues exactly where this one stopped.
func (c *CPU) RunUntilDecode(maxCycles, stopDecode int64) Result {
	start := c.cycle
	decodeStart := c.decodeEvents
	for !c.terminated && c.cycle-start < maxCycles && (stopDecode < 0 || c.decodeEvents < stopDecode) {
		c.stepCycle()
	}
	if p := c.cfg.Probe; p != nil {
		p.Cycles.Add(c.cycle - start)
		p.DecodeEvents.Add(c.decodeEvents - decodeStart)
		c.publishCowCopies(p)
		if d := c.detPolls - c.detPollsSeen; d > 0 {
			p.DetectorPolls.Add(d)
			c.detPollsSeen = c.detPolls
		}
		if c.frame != nil {
			m := c.frame.Mismatches()
			if d := m - c.detDetectionsSeen; d > 0 {
				p.DetectorDetections.Add(d)
			}
			c.detDetectionsSeen = m
		}
	}
	term := c.termination
	if !c.terminated {
		term = TermBudget
	}
	return Result{
		Cycles:              c.cycle,
		Committed:           c.committedCount,
		DecodeEvents:        c.decodeEvents,
		Termination:         term,
		SpcFired:            c.spcFired,
		Mispredicts:         c.mispredicts,
		ITRFlushes:          c.itrFlushes,
		CheckpointsTaken:    c.ckptTaken,
		CheckpointRollbacks: c.ckptRollbacks,
	}
}

func (c *CPU) stepCycle() {
	c.commitStage()
	if c.terminated {
		return
	}
	c.writebackStage()
	c.issueStage()
	c.dispatchStage()
	c.fetchStage()
	c.cycle++
	if c.cfg.CheckpointEnabled && c.cycle%c.cfg.CheckpointIntervalCycles == 0 {
		c.ckpt = c.committed.Checkpoint(c.mem)
		c.ckptCommit = c.committedCount
		c.ckptTaken++
		if c.ckptObserver != nil {
			c.ckptObserver(true)
		}
	}
	if c.cycle-c.lastCommitCycle > c.cfg.WatchdogCycles {
		c.terminated = true
		c.termination = TermDeadlock
	}
}

func (c *CPU) robLen() int { return int(c.robTail - c.robHead) }

// slot maps a sequence number to its ROB slot index. The ring is sized to a
// power of two so the hot-path index is a mask, not a divide.
func (c *CPU) slot(seq uint64) uint64 { return seq & c.robMask }

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ---- fetch queue (ring) ----

func (c *CPU) fqLen() int { return int(c.fqTail - c.fqHead) }

func (c *CPU) fqReset() { c.fqTail = c.fqHead }

// ---- commit ----

func (c *CPU) commitStage() {
	for n := 0; n < c.cfg.CommitWidth && c.robLen() > 0; n++ {
		idx := c.slot(c.robHead)
		if !c.slots.done.get(idx) {
			return
		}
		flags := c.slots.flags[idx]
		if flags&slotWrongPath != 0 {
			// Unreachable when resolution works: wrong-path uops are
			// always squashed by the mispredicted branch ahead of them.
			panic("pipeline: wrong-path uop reached commit")
		}
		if c.frame != nil {
			c.detPolls++
			if !c.frame.PollQuick() {
				a := c.det.Poll()
				// Slow polls are where mismatches surface, so stamping
				// here keeps detection-latency tracking off the
				// quick-poll hot path. The counter guard matters for the
				// default backend, whose slow polls are routine (one per
				// checked trace) and overwhelmingly mismatch-free.
				c.cfg.Trace.Emit(obs.EvDetectorPoll, c.cycle, int64(a.Kind))
				if c.frame.Mismatches() > c.detStamped {
					c.stampDetections()
				}
				if c.act(a) {
					return
				}
			}
		}
		if c.renameChecker != nil && !c.renameChecker.PollQuick() && c.act(c.renameChecker.Poll()) {
			return
		}
		pc := c.slots.pc[idx]
		out := &c.slots.outcome[idx]
		// Sequential-PC check (Section 2.5): a committing instruction's PC
		// must match the commit PC chain.
		if pc != c.expectedPC {
			c.spcFired++
		}
		c.expectedPC = out.NextPC

		c.committed.ApplyRef(out)
		if out.MemWrite {
			// The store's effect is in committed memory now; release its
			// overlay word.
			c.spec.overlay.commitStore(out.MemAddr)
		}
		c.committedCount++
		if c.frame != nil {
			c.frame.SetNow(c.committedCount)
		}
		c.lastCommitCycle = c.cycle
		if c.observer != nil {
			c.observer(pc, out)
		}
		if flags&slotTraceEnd != 0 {
			if c.det != nil {
				// Rival backends (RepTFD, DME) record mismatches during
				// trace retirement rather than in Poll; stamp them here.
				// The counter load keeps the no-mismatch case (every
				// fault-free trace) call-free.
				c.det.CommitTraceEnd()
				if c.frame.Mismatches() > c.detStamped {
					c.stampDetections()
				}
			}
			if c.renameChecker != nil {
				c.renameChecker.CommitTraceEnd()
			}
		}
		c.robHead++
		if out.Halt {
			c.terminated = true
			c.termination = TermHalt
			return
		}
	}
}

// act carries out a detector's commit-time verdict, the same for the main
// detector and the rename checker: a stall waits, a retry flushes and
// restarts, and a machine check rolls back to the last coarse-grain
// checkpoint when that provably suffices, or else aborts the program. It
// reports whether commit stops for this cycle.
func (c *CPU) act(a core.Action) bool {
	switch a.Kind {
	case core.ActionStall:
	case core.ActionRetry:
		c.itrFlush(a.RestartPC)
	case core.ActionMachineCheck:
		if restart, ok := c.checkpointRecover(a.RestartPC); ok {
			c.itrFlush(restart)
			return true
		}
		c.terminated = true
		c.termination = TermMachineCheck
	default:
		return false
	}
	return true
}

// stampDetections timestamps any mismatches the detector has recorded
// since the last stamp, attributing them to the current cycle and
// committed-instruction count. Callers invoke it only on slow paths (slow
// polls, and rival-backend trace retirements whose counter advanced),
// never per commit.
func (c *CPU) stampDetections() {
	m := c.frame.Mismatches()
	for c.detStamped < m {
		c.detStamped++
		c.detStamps = append(c.detStamps, DetectionStamp{Cycle: c.cycle, Committed: c.committedCount})
		c.cfg.Trace.Emit(obs.EvDetection, c.cycle, c.committedCount)
	}
}

// itrFlush implements the Section 2.2 recovery: flush the whole window and
// restart fetch at the faulting trace's start PC. Architectural state is
// intact because nothing from the flushed window committed.
func (c *CPU) itrFlush(restartPC uint64) {
	c.itrFlushes++
	c.cfg.Trace.Emit(obs.EvRollback, c.cycle, int64(restartPC))
	c.robTail = c.robHead
	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	c.fqReset()
	c.former.Reset()
	c.renameSig.reset()
	// Both detectors' in-flight windows are squashed. The detector whose
	// retry caused this flush has already cleared itself (and armed its
	// retry state); FlushAll on an empty window is a no-op, so flushing
	// both keeps the two in-flight windows aligned trace-for-trace.
	if c.frame != nil {
		c.frame.FlushAll()
	}
	if c.renameChecker != nil {
		c.renameChecker.FlushAll()
	}
	c.spec.restore(c.committed)
	c.fetchPC = restartPC
	c.wrongPathArmed = false
	c.haltSeen = false
	for f := range c.prod {
		for r := range c.prod[f] {
			c.prod[f][r] = producer{}
		}
	}
}

// ---- writeback / branch resolution ----

// wheelSlots sizes the completion calendar; it must exceed the largest
// isa.LatCycles value (6) so a bucket never mixes two completion cycles.
const (
	wheelSlots = 8
	wheelMask  = wheelSlots - 1
)

func (c *CPU) writebackStage() {
	bucket := c.wheel[c.cycle&wheelMask]
	if len(bucket) == 0 {
		return
	}
	completed := c.wbCompleted[:0]
	for _, seq := range bucket {
		if seq < c.robHead || seq >= c.robTail {
			continue // squashed or committed
		}
		idx := c.slot(seq)
		// A recycled slot invalidates stale bucket entries: the new occupant
		// is unissued, already done, or issued toward a different cycle.
		if !c.slots.issued.get(idx) || c.slots.done.get(idx) ||
			int64(c.slots.doneCycle[idx]) != c.cycle {
			continue
		}
		completed = append(completed, seq)
	}
	c.wheel[c.cycle&wheelMask] = bucket[:0]
	c.wbCompleted = completed[:0] // keep the grown backing array for next cycle
	// Complete oldest-first so the oldest misprediction wins the redirect.
	for i := 1; i < len(completed); i++ {
		for j := i; j > 0 && completed[j] < completed[j-1]; j-- {
			completed[j], completed[j-1] = completed[j-1], completed[j]
		}
	}
	for _, seq := range completed {
		if seq < c.robHead || seq >= c.robTail {
			continue // squashed by an older branch this cycle
		}
		idx := c.slot(seq)
		if c.slots.done.get(idx) {
			continue // duplicate bucket entry for a recycled sequence number
		}
		c.slots.done.set(idx)
		c.wake(idx, seq)
		flags := c.slots.flags[idx]
		if flags&slotWrongPath != 0 || flags&slotBranching == 0 {
			continue
		}
		// Correct-path branch resolution.
		out := &c.slots.outcome[idx]
		c.pred.Train(c.slots.pc[idx], out.NextPC, out.Taken, flags&slotUncond != 0)
		if c.wrongPathArmed && c.wrongPathFrom == seq {
			c.repairMispredict(seq, out.NextPC)
		}
	}
}

// repairMispredict squashes everything younger than the branch at seq and
// redirects fetch to the correct target.
func (c *CPU) repairMispredict(seq uint64, target uint64) {
	c.mispredicts++
	c.robTail = seq + 1
	c.fqReset()
	c.former.Reset()
	c.fetchPC = target
	c.wrongPathArmed = false
	c.haltSeen = false
	// Producers in the squashed region are gone.
	for f := range c.prod {
		for r := range c.prod[f] {
			if c.prod[f][r].valid && c.prod[f][r].seq >= c.robTail {
				c.prod[f][r] = producer{}
			}
		}
	}
	// Squashed consumers' wakeup nodes sit at the head of surviving
	// producers' lists (insertion is newest-first), in front of surviving
	// waiters. Once a squashed slot is recycled, its node's next-link is
	// overwritten by the new occupant's registration, which would strand
	// every surviving waiter behind it. Rebuild the survivors' lists from
	// the source words — the authoritative record of unsatisfied operands.
	for s := c.robHead; s < c.robTail; s++ {
		c.slots.wakeHead[c.slot(s)] = wakeNone
	}
	for s := c.robHead; s < c.robTail; s++ {
		if idx := c.slot(s); !c.slots.issued.get(idx) {
			c.registerSources(idx) // issued uops never wait again
		}
	}
	// The branch terminated its trace, so it owns the youngest surviving
	// ITR ROB entry; roll back to the checkpoint noted at its dispatch.
	if idx := c.slot(seq); c.slots.flags[idx]&slotTraceEnd != 0 {
		if c.frame != nil {
			c.frame.RollbackTo(c.slots.itrSeq[idx])
		}
		if c.renameChecker != nil {
			c.renameChecker.RollbackTo(c.slots.renameSeq[idx])
		}
	}
	c.renameSig.reset()
}

// ---- issue ----

func (c *CPU) issueStage() {
	issued := 0
	limit := c.robHead + uint64(c.cfg.IssueWindow)
	if limit > c.robTail {
		limit = c.robTail
	}
	width := c.cfg.IssueWidth
	issuedCol, doneCol, readyCol := c.slots.issued, c.slots.done, c.slots.ready
	// Walk the window one flag word at a time: one AND over the three bitset
	// words yields exactly the issueable slots — readiness is maintained
	// incrementally by wake, so no per-candidate operand polling happens here.
	for seq := c.robHead; seq < limit && issued < width; {
		idx := c.slot(seq)
		off := idx & 63
		span := 64 - off
		if rem := limit - seq; rem < span {
			span = rem
		}
		if wrap := uint64(c.slots.capacity) - idx; wrap < span {
			span = wrap // the ring wraps mid-word for rings shorter than 64
		}
		cand := (readyCol[idx>>6] &^ (issuedCol[idx>>6] | doneCol[idx>>6])) >> off
		if span < 64 {
			cand &= 1<<span - 1
		}
		for cand != 0 && issued < width {
			b := uint64(bits.TrailingZeros64(cand))
			cand &= cand - 1
			s := seq + b
			si := c.slot(s)
			issuedCol.set(si)
			dc := uint64(c.cycle + int64(c.slots.lat[si]))
			c.slots.doneCycle[si] = dc
			c.wheel[dc&wheelMask] = append(c.wheel[dc&wheelMask], s)
			issued++
		}
		seq += span
	}
}

// wake satisfies every source word waiting on the completed producer at slot
// pidx (sequence pseq): each registered waiter's word is cleared and its
// pending count dropped, setting the ready bit when the last operand arrives.
// Nodes are validated against the exact packed word before acting, so links
// stranded by slot recycling skip harmlessly; the step bound caps walks over
// next-pointers corrupted the same way (a corrupted hop can only skip or
// correctly wake, never mis-wake).
func (c *CPU) wake(pidx, pseq uint64) {
	n := c.slots.wakeHead[pidx]
	if n == wakeNone {
		return
	}
	c.slots.wakeHead[pidx] = wakeNone
	want := srcWordSeq | pseq
	for steps := 3 * c.slots.capacity; n != wakeNone && steps > 0; steps-- {
		next := c.slots.wakeNext[n]
		if c.slots.srcs[n] == want {
			c.slots.srcs[n] = 0
			ci := n / 3
			c.slots.pending[ci]--
			if c.slots.pending[ci] == 0 {
				c.slots.ready.set(ci)
			}
		}
		n = next
	}
}

// ---- dispatch / decode ----

func (c *CPU) dispatchStage() {
	for n := 0; n < c.cfg.FetchWidth && c.fqLen() > 0; n++ {
		if c.robLen() == c.robCap {
			return // ROB full
		}
		if c.frame != nil && c.frame.Full() {
			return // detector in-flight window full: stall decode (Section 2.2)
		}
		if c.renameChecker != nil && c.renameChecker.Full() {
			return
		}
		fi := c.fq[c.fqHead&c.fqMask]
		c.fqHead++

		// The memoized table supplies the fault-free signals; the fault hook
		// then corrupts this dynamic instance's private copy, so injection at
		// the chosen decode event works exactly as with a live decoder while
		// the table stays clean.
		c.decodeEvents++
		d := c.decode.Signals(fi.pc)
		// w mirrors d in packed form. The table memoizes the fault-free
		// packing, so the per-dispatch Pack() is only paid when a hook
		// actually corrupts this dynamic instance's signals. While clean
		// holds, w is the table's word and the uop executes through the
		// clean-word kernel.
		w := c.decode.Word(fi.pc)
		clean := true
		if c.faultHook != nil {
			if nd := c.faultHook(c.decodeEvents, fi.pc, c.wrongPathArmed, d); nd != d {
				d = nd
				w = d.Pack()
				clean = false
			}
		}
		if c.cfg.Redundancy != RedundancyNone {
			// Decode the instruction a second time (a second decoder for
			// dual-decode; a second pass for time redundancy) and compare
			// the signal vectors. Both copies are independently exposed to
			// faults.
			c.decodeEvents++
			c.redundancy.ExtraDecodes++
			d2 := c.decode.Signals(fi.pc)
			if c.faultHook != nil {
				d2 = c.faultHook(c.decodeEvents, fi.pc, c.wrongPathArmed, d2)
			}
			c.redundancy.Comparisons++
			if d != d2 {
				// Mismatch: a transient hit one copy. Recovery is a clean
				// re-decode before anything propagates.
				c.redundancy.Detections++
				d = c.decode.Signals(fi.pc)
				w = c.decode.Word(fi.pc)
				clean = true
			}
			if c.cfg.Redundancy == RedundancyTimeRedundant {
				// The second pass consumes a decode slot: halved frontend
				// bandwidth is the measurable cost of time redundancy.
				n++
			}
		}

		// Build the uop directly in its ROB slot columns; the slot is
		// invisible until robTail advances, so nothing observes it
		// half-built. Every column a recycled slot may carry stale data in
		// is rewritten here (the flags word is accumulated locally and
		// stored once, below).
		seq := c.robTail
		idx := c.slot(seq)
		wrongPath := c.wrongPathArmed
		flags := slotValid
		if wrongPath {
			flags |= slotWrongPath
		}
		if d.IsBranching() {
			flags |= slotBranching
		}
		if d.HasFlag(isa.FlagUncond) {
			flags |= slotUncond
		}
		c.slots.issued.clear(idx)
		c.slots.done.clear(idx)
		c.slots.pc[idx] = fi.pc
		c.slots.predNext[idx] = fi.predNext
		c.slots.decodeIndex[idx] = uint64(c.decodeEvents)
		c.slots.lat[idx] = uint64(isa.LatCycles(d.Lat))

		// Rename stage: the map indexes are derived from the decode
		// signals; a rename-stage fault corrupts them without touching the
		// signals themselves, so only the rename signature can see it.
		exe := d
		if c.renameChecker != nil || c.renameFaultHook != nil {
			ri := renameIndexesOf(d)
			if c.renameFaultHook != nil {
				ri = c.renameFaultHook(c.decodeEvents, ri)
			}
			exe = applyRenameIndexes(d, ri)
			clean = clean && exe == d
			if c.renameChecker != nil {
				c.renameSig.add(ri)
			}
		}

		// Execute straight into the ROB outcome column and apply the
		// outcome to the speculative state.
		out := &c.slots.outcome[idx]
		switch {
		case wrongPath:
			*out = isa.Outcome{}
		case clean:
			c.spec.arch.ExecClean(out, w, fi.pc)
		default:
			c.spec.arch.ExecInto(out, exe, fi.pc)
			c.spec.arch.ApplyRef(out)
		}

		c.collectSources(idx, d)
		c.robTail++

		if d.NumRdst == 1 && !wrongPath {
			file := 0
			if d.HasFlag(isa.FlagFP) {
				file = 1
			}
			if !(file == 0 && d.Rdst == 0) {
				c.prod[file][d.Rdst&0x1f] = producer{valid: true, seq: seq}
			}
		}

		// Trace formation at decode; trace ends dispatch into the ITR ROB
		// and access the ITR cache (Section 2.2).
		if c.former.StepTerm(fi.pc, w) {
			ev := c.former.Take()
			flags |= slotTraceEnd
			if c.det != nil {
				itrSeq, _ := c.det.DispatchTrace(ev, wrongPath)
				c.slots.itrSeq[idx] = itrSeq
			}
			if c.renameChecker != nil {
				rev := ev
				rev.Sig = c.renameSig.takeSig()
				renameSeq, _ := c.renameChecker.DispatchTrace(rev, wrongPath)
				c.slots.renameSeq[idx] = renameSeq
			}
		}
		c.slots.flags[idx] = flags

		// Misprediction detection: the functional outcome of a correct-path
		// branch is known at dispatch; the repair happens at resolve.
		if !wrongPath && d.IsBranching() && out.NextPC != fi.predNext {
			c.wrongPathArmed = true
			c.wrongPathFrom = seq
		}

		if !c.wrongPathArmed && d.HasFlag(isa.FlagTrap) && d.Opcode == isa.OpHalt {
			c.haltSeen = true
			c.fqReset()
			return
		}
	}
}

// collectSources derives the scheduler's operand dependences from the
// (possibly corrupted) signal vector, writing the slot's three packed source
// words (zero = ready, so unused operand slots need no count): num_rsrc names
// how many operands the instruction waits for; a num_rsrc of 3 waits forever
// (deadlock, caught by the watchdog).
func (c *CPU) collectSources(idx uint64, d isa.DecodeSignals) {
	srcs := c.slots.srcs[idx*3 : idx*3+3 : idx*3+3]
	srcs[0], srcs[1], srcs[2] = 0, 0, 0
	file := 0
	if d.HasFlag(isa.FlagFP) && !d.HasFlag(isa.FlagLd) && !d.HasFlag(isa.FlagSt) {
		file = 1
	}
	n := int(d.NumRsrc)
	if n >= 1 {
		srcs[0] = c.srcWord(file, d.Rsrc1)
	}
	if n >= 2 {
		dataFile := file
		if d.HasFlag(isa.FlagFP) && d.HasFlag(isa.FlagSt) {
			dataFile = 1 // fp store data comes from the fp file
		}
		srcs[1] = c.srcWord(dataFile, d.Rsrc2)
	}
	if n >= 3 {
		srcs[2] = srcWordPhantom
	}

	// This slot is a fresh producer: abandon whatever wakeup list a previous
	// occupant left.
	c.slots.wakeHead[idx] = wakeNone
	c.registerSources(idx)
}

// registerSources resolves slot idx's source words once: a word whose
// producer already completed (or left the window) clears to ready; the rest
// register on their producer's wakeup list and are never polled again. It
// then sets the slot's pending count and ready bit. Dispatch calls it for
// each new uop, and a mispredict repair for each unissued survivor.
func (c *CPU) registerSources(idx uint64) {
	srcs := c.slots.srcs[idx*3 : idx*3+3 : idx*3+3]
	pending := uint64(0)
	for k := uint64(0); k < 3; k++ {
		w := srcs[k]
		if w == 0 {
			continue
		}
		if w < srcWordPhantom {
			seq := w & srcSeqMask
			pidx := seq & c.robMask
			if seq < c.robHead || seq >= c.robTail || c.slots.done.get(pidx) {
				srcs[k] = 0
				continue
			}
			c.slots.wakeNext[idx*3+k] = c.slots.wakeHead[pidx]
			c.slots.wakeHead[pidx] = idx*3 + k
		}
		pending++ // a phantom word registers nowhere: it can never wake
	}
	c.slots.pending[idx] = pending
	c.slots.ready.put(idx, pending == 0)
}

// srcWord packs one operand dependence: the in-flight producer's sequence
// number, or 0 (ready) for the hardwired zero register or a committed value.
func (c *CPU) srcWord(f int, r isa.RegID) uint64 {
	if f == 0 && r == 0 {
		return 0
	}
	if p := &c.prod[f][r&0x1f]; p.valid {
		return srcWordSeq | p.seq
	}
	return 0
}

// ---- fetch ----

func (c *CPU) fetchStage() {
	if c.haltSeen {
		return
	}
	if c.pcFaultCycle > 0 && !c.pcFaultDone && c.cycle >= c.pcFaultCycle {
		c.pcFaultDone = true
		c.fetchPC ^= 1 << uint(c.pcFaultBit)
	}
	for n := 0; n < c.cfg.FetchWidth && c.fqLen() < c.cfg.FetchQueue; n++ {
		next, taken := c.pred.Predict(c.fetchPC)
		c.fq[c.fqTail&c.fqMask] = fetchedInst{pc: c.fetchPC, predNext: next, taken: taken}
		c.fqTail++
		c.fetchPC = next
		if taken {
			break // fetch group ends at a predicted-taken branch
		}
	}
}
