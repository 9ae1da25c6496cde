package core

import (
	"fmt"

	"itr/internal/cache"
	"itr/internal/sig"
	"itr/internal/trace"
)

// Mode selects how the checker reacts to detections.
type Mode int

// Checker modes.
const (
	// ModeFull runs the complete Section 2.2 protocol: mismatch triggers a
	// retry flush; a second mismatch raises a machine check (or recovers
	// the ITR cache line when parity protection identifies a line fault).
	ModeFull Mode = iota + 1
	// ModeObserve records detections but never recovers or aborts. Fault
	// campaigns use it to observe a fault's natural outcome while still
	// learning whether (and how) ITR would have detected it.
	ModeObserve
)

// ActionKind tells the pipeline what to do after a commit-time poll.
type ActionKind int

// Commit actions.
const (
	// ActionProceed commits the instruction normally.
	ActionProceed ActionKind = iota + 1
	// ActionStall delays commit until the ITR cache access completes.
	ActionStall
	// ActionRetry flushes the processor and restarts at Action.RestartPC
	// (first signature mismatch, Section 2.2).
	ActionRetry
	// ActionMachineCheck aborts the program: the previous instance of the
	// trace committed with a fault, so architectural state is corrupted.
	ActionMachineCheck
	// ActionParityRecovered repaired an ITR cache line fault detected via
	// parity (Section 2.4) and commit proceeds.
	ActionParityRecovered
)

// Action is the checker's verdict for a committing instruction.
type Action struct {
	Kind      ActionKind
	RestartPC uint64
}

// Detection records one signature mismatch observed at commit time.
type Detection struct {
	StartPC   uint64
	AccessSig uint64 // signature generated by the committing instance
	CachedSig uint64 // signature found in the ITR cache
	Seq       uint64 // ITR ROB sequence number of the detecting trace
	OnRetry   bool   // mismatch happened on the retry pass
}

// Stats counts checker events.
type Stats struct {
	Dispatched     int64 // trace entries allocated (including wrong path)
	Hits           int64
	Misses         int64
	Mismatches     int64
	Retries        int64
	Recoveries     int64 // retry re-executed and matched: transient confirmed
	MachineChecks  int64
	ParityRecovers int64
	Writes         int64 // ITR cache installs at commit
	Squashed       int64 // entries removed by rollback

	// ReplayedInsts counts instructions re-fetched/re-executed by a
	// redundant engine (RepTFD chunk replay, DME dual execution); always
	// zero for the ITR checker, whose whole point is avoiding that work.
	ReplayedInsts int64
	// ChunksChecked counts replay chunks compared (chunked-replay backends).
	ChunksChecked int64
}

// Checker is the paper's ITR backend: dispatch reads the ITR cache for the
// trace's reference signature, and retiring a missed trace installs its
// signature. The embedded Frame runs the rest of the Section 2.2 protocol;
// the Checker adds parity repair of a faulty cache line (Section 2.4).
type Checker struct {
	Frame
	cfg   Config
	cache *cache.Cache
}

// NewChecker builds a checker for the given configuration and mode.
func NewChecker(cfg Config, mode Mode) (*Checker, error) {
	cfg = cfg.normalize()
	c, err := cfg.NewCache()
	if err != nil {
		return nil, err
	}
	f, err := NewFrame(mode)
	if err != nil {
		return nil, err
	}
	return &Checker{Frame: f, cfg: cfg, cache: c}, nil
}

// Cache exposes the ITR cache (fault injection targets it; the classifier
// probes it for MayITR outcomes).
func (c *Checker) Cache() *cache.Cache { return c.cache }

// DispatchTrace allocates an ITR ROB entry for a completed trace and
// performs the dispatch-time ITR cache access (read). It returns the entry's
// sequence number for branch checkpoints. ok is false when the ITR ROB is
// full and dispatch must stall.
func (c *Checker) DispatchTrace(ev trace.Event) (seq uint64, ok bool) {
	if c.Full() {
		return 0, false
	}
	entry := ROBEntry{StartPC: ev.StartPC, Sig: ev.Sig, Len: ev.Len}
	if ln, hit := c.cache.Lookup(ev.StartPC); hit {
		entry.CachedSig = ln.Value
		if ln.Value == ev.Sig {
			entry.State = sig.CtrlChk
			ln.Checked = true
		} else {
			entry.State = sig.CtrlChkRetry
		}
		c.stats.Hits++
	} else {
		entry.State = sig.CtrlMiss
		c.stats.Misses++
	}
	return c.Dispatch(entry)
}

// Poll is the frame's commit rule with parity protection: when the retried
// trace mismatches again and parity exposes a fault in the ITR cache line
// itself, the line is repaired with the freshly generated signature and
// commit proceeds (Section 2.4) instead of raising a machine check.
func (c *Checker) Poll() Action {
	h := c.rob.Head()
	if c.cfg.Parity && c.mode == ModeFull && h != nil && h.State.Retry() && c.retryArmed && c.retryPC == h.StartPC {
		if ln, ok := c.cache.Probe(h.StartPC); ok && cache.Parity64(ln.Value) != ln.Parity {
			c.record(h)
			c.retryArmed = false
			ln.Value = h.Sig
			ln.Parity = cache.Parity64(h.Sig)
			ln.Checked = true
			h.State = sig.CtrlChk
			c.stats.ParityRecovers++
			return Action{Kind: ActionParityRecovered}
		}
	}
	return c.Frame.Poll()
}

// CommitTraceEnd is called when the trace-terminating instruction of the
// oldest trace commits (after Poll allowed it). It installs a missed
// signature, then retires the head entry.
func (c *Checker) CommitTraceEnd() {
	if h := c.rob.Head(); h != nil && h.State.Miss() {
		c.install(h)
	}
	c.Retire()
}

// install writes a trace signature into the ITR cache at commit time.
func (c *Checker) install(h *ROBEntry) {
	ln, _, _ := c.cache.InsertGet(h.StartPC, h.Sig)
	c.stats.Writes++
	ln.Aux = uint64(h.Len)
	ln.Parity = cache.Parity64(h.Sig)
	ln.Stamp = c.now
}

// Settled implements Detector. The ITR compare resolves at dispatch (the
// cache lookup assigns chk/retry/miss immediately), so the only sources of
// future events are the frame's: an armed retry and in-flight entries whose
// dispatch already observed a mismatch (retry state) or whose control state
// is corrupted (invalid / still-pending). Faithful future dispatches resolve
// to chk or miss against true-signature lines; mismatches against a faulty
// *resident* line are possible, but auditing cache contents needs the
// fault-free oracle and is the caller's job per the interface contract.
func (c *Checker) Settled(cleanCommit int64, diverged bool) bool { return c.Quiet() }

// SignatureStamp returns the committed-instruction stamp of pc's ITR cache
// line, if resident. Checkpointed recovery declines to roll back when the
// machine-checked line predates the checkpoint (the corruption is inside the
// checkpoint itself).
func (c *Checker) SignatureStamp(pc uint64) (stamp int64, found bool) {
	if ln, ok := c.cache.Probe(pc); ok {
		return ln.Stamp, true
	}
	return 0, false
}

// DiscardSignature invalidates pc's ITR cache line after a checkpoint
// rollback: the line held the faulty signature, and re-execution from the
// checkpoint re-learns it.
func (c *Checker) DiscardSignature(pc uint64) { c.cache.Invalidate(pc) }

// CheckerState is an immutable capture of a Checker's mutable state: the
// frame's capture, plus the ITR cache as a cache.State (its line chunks
// shared with the checker's previous capture wherever unchanged). A state
// is never written through, so one state may be restored into many checkers
// concurrently.
type CheckerState struct {
	FrameState
	cache *cache.State
}

// Sharing reports how many ITR-cache line chunks the capture shared with
// the checker's previous sync point and how many it copied.
func (s *CheckerState) Sharing() (shared, copied int) { return s.cache.Sharing() }

// CaptureState snapshots the checker's mutable state.
func (c *Checker) CaptureState() DetectorState {
	return &CheckerState{FrameState: c.Capture(), cache: c.cache.CaptureState()}
}

// RestoreState overwrites the checker's mutable state with state, preserving
// the checker's identity (its cache pointer stays valid for callers holding
// Cache()). The checker's configuration must structurally match the one the
// state was captured from; mode is configuration, not state, and is left
// untouched.
func (c *Checker) RestoreState(state DetectorState) error {
	s, ok := state.(*CheckerState)
	if !ok {
		return fmt.Errorf("checker: restore from foreign detector state %T", state)
	}
	if err := c.cache.RestoreState(s.cache); err != nil {
		return err
	}
	return c.Restore(&s.FrameState)
}
