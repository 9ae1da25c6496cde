package core

import (
	"testing"

	"itr/internal/cache"
	"itr/internal/sig"
	"itr/internal/trace"
)

func newChecker(t *testing.T, mode Mode) *Checker {
	t.Helper()
	c, err := NewChecker(Config{Entries: 16, Assoc: 2}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func dispatch(t *testing.T, c *Checker, e trace.Event) uint64 {
	t.Helper()
	seq, ok := c.DispatchTrace(e, false)
	if !ok {
		t.Fatal("ITR ROB full")
	}
	return seq
}

// pollCommit models a full commit of the head trace: poll, then commit the
// trace end if allowed.
func pollCommit(c *Checker) Action {
	a := c.Poll()
	if a.Kind == ActionProceed || a.Kind == ActionParityRecovered {
		c.CommitTraceEnd()
	}
	return a
}

func TestCheckerMissInstallHitMatch(t *testing.T) {
	c := newChecker(t, ModeFull)
	e := trace.Event{StartPC: 5, Len: 4, Sig: 0xabc}

	dispatch(t, c, e)
	st, ok := c.HeadState()
	if !ok || !st.Miss() {
		t.Fatalf("first dispatch state = %v", st)
	}
	if a := pollCommit(c); a.Kind != ActionProceed {
		t.Fatalf("miss commit action = %v", a.Kind)
	}
	// Signature must now be installed.
	ln, ok := c.Cache().Probe(5)
	if !ok || ln.Value != 0xabc || ln.Aux != 4 {
		t.Fatalf("installed line: %+v ok=%v", ln, ok)
	}

	dispatch(t, c, e)
	st, _ = c.HeadState()
	if st != sig.CtrlChk {
		t.Fatalf("second dispatch state = %v", st)
	}
	if a := pollCommit(c); a.Kind != ActionProceed {
		t.Fatalf("hit commit action = %v", a.Kind)
	}
	if c.PendingTraces() != 0 {
		t.Fatal("entries not freed")
	}
	stats := c.Stats()
	if stats.Misses != 1 || stats.Hits != 1 || stats.Writes != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestCheckerPollOnEmptyROBProceeds(t *testing.T) {
	c := newChecker(t, ModeFull)
	if a := c.Poll(); a.Kind != ActionProceed {
		t.Fatalf("empty-ROB poll = %v (the final partial trace must be able to commit)", a.Kind)
	}
}

func TestCheckerMismatchRetriesThenRecovers(t *testing.T) {
	c := newChecker(t, ModeFull)
	clean := trace.Event{StartPC: 5, Len: 4, Sig: 0xabc}
	faulty := trace.Event{StartPC: 5, Len: 4, Sig: 0xabd} // transient in new instance

	dispatch(t, c, clean)
	pollCommit(c) // install

	dispatch(t, c, faulty)
	st, _ := c.HeadState()
	if st != sig.CtrlChkRetry {
		t.Fatalf("mismatch state = %v", st)
	}
	a := c.Poll()
	if a.Kind != ActionRetry || a.RestartPC != 5 {
		t.Fatalf("action = %+v", a)
	}
	if c.PendingTraces() != 0 {
		t.Fatal("retry flush must clear the ITR ROB")
	}
	if _, armed := c.RetryArmed(); !armed {
		t.Fatal("retry not armed")
	}

	// Re-execution is fault-free: signature matches.
	dispatch(t, c, clean)
	if a := pollCommit(c); a.Kind != ActionProceed {
		t.Fatalf("retry commit = %v", a.Kind)
	}
	stats := c.Stats()
	if stats.Retries != 1 || stats.Recoveries != 1 || stats.MachineChecks != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if _, armed := c.RetryArmed(); armed {
		t.Fatal("retry still armed after recovery")
	}
}

// TestCheckerStateRoundTrip: RestoreState puts back exactly the plain state
// CaptureState took, whatever ran in between. Comparing checkerVals with ==
// also keeps it comparable: a slice field added to it fails to compile.
func TestCheckerStateRoundTrip(t *testing.T) {
	c := newChecker(t, ModeFull)
	clean := trace.Event{StartPC: 5, Len: 4, Sig: 0xabc}
	dispatch(t, c, clean)
	pollCommit(c) // install
	dispatch(t, c, trace.Event{StartPC: 5, Len: 4, Sig: 0xabd})
	c.Poll() // mismatch: retry armed
	c.SetNow(7)
	st := c.CaptureState().(*CheckerState)
	if c.checkerVals != st.v || !st.v.retryArmed {
		t.Fatalf("capture = %+v, live %+v", st.v, c.checkerVals)
	}

	dispatch(t, c, clean)
	pollCommit(c) // recovers, disarming the retry
	c.SetNow(19)
	if c.checkerVals == st.v {
		t.Fatal("plain state unchanged by further execution; the round trip would be vacuous")
	}
	if err := c.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if c.checkerVals != st.v {
		t.Fatalf("plain state did not round-trip:\ngot  %+v\nwant %+v", c.checkerVals, st.v)
	}
}

func TestCheckerPollFiresBeforeTraceEndCommits(t *testing.T) {
	// The retry must trigger on the FIRST commit poll of the faulty trace,
	// not only when its terminating instruction commits — this is what lets
	// ITR rescue mid-trace deadlocks (ITR+wdog+R in the paper's Figure 8).
	c := newChecker(t, ModeFull)
	clean := trace.Event{StartPC: 5, Len: 4, Sig: 0xabc}
	dispatch(t, c, clean)
	pollCommit(c)

	dispatch(t, c, trace.Event{StartPC: 5, Len: 4, Sig: 0xbad})
	// An instruction in the middle of the trace polls: retry fires now.
	if a := c.Poll(); a.Kind != ActionRetry {
		t.Fatalf("mid-trace poll = %v, want retry", a.Kind)
	}
}

func TestCheckerPersistentMismatchRaisesMachineCheck(t *testing.T) {
	c := newChecker(t, ModeFull)
	// The cache holds a signature produced by a faulty previous instance.
	faulty := trace.Event{StartPC: 5, Len: 4, Sig: 0xbad}
	clean := trace.Event{StartPC: 5, Len: 4, Sig: 0xabc}

	dispatch(t, c, faulty)
	pollCommit(c) // installs the faulty signature

	dispatch(t, c, clean)
	if a := c.Poll(); a.Kind != ActionRetry {
		t.Fatalf("first mismatch = %v", a.Kind)
	}
	dispatch(t, c, clean) // retry pass: still mismatches
	a := c.Poll()
	if a.Kind != ActionMachineCheck {
		t.Fatalf("second mismatch = %v, want machine check", a.Kind)
	}
	if c.Stats().MachineChecks != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

func TestCheckerParityRecoversCacheLineFault(t *testing.T) {
	c, err := NewChecker(Config{Entries: 16, Assoc: 2, Parity: true}, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	clean := trace.Event{StartPC: 5, Len: 4, Sig: 0xabc}
	dispatch(t, c, clean)
	pollCommit(c) // install with parity

	// Fault on the ITR cache line itself: flip one bit of the stored
	// signature; parity is now inconsistent.
	ln, _ := c.Cache().Probe(5)
	ln.Value ^= 1 << 9

	dispatch(t, c, clean)
	if a := c.Poll(); a.Kind != ActionRetry {
		t.Fatalf("first mismatch = %v", a.Kind)
	}
	dispatch(t, c, clean)
	a := pollCommit(c)
	if a.Kind != ActionParityRecovered {
		t.Fatalf("parity path = %v, want recovery", a.Kind)
	}
	// The line must be repaired with the fresh signature.
	ln, _ = c.Cache().Probe(5)
	if ln.Value != 0xabc || cache.Parity64(ln.Value) != ln.Parity {
		t.Fatalf("line not repaired: %+v", ln)
	}
	if c.Stats().MachineChecks != 0 {
		t.Fatal("parity recovery must avoid the machine check")
	}
	if c.PendingTraces() != 0 {
		t.Fatal("entry not freed after parity recovery")
	}
}

func TestCheckerWithoutParityCacheFaultAborts(t *testing.T) {
	c := newChecker(t, ModeFull) // parity disabled
	clean := trace.Event{StartPC: 5, Len: 4, Sig: 0xabc}
	dispatch(t, c, clean)
	pollCommit(c)
	ln, _ := c.Cache().Probe(5)
	ln.Value ^= 1 << 9

	dispatch(t, c, clean)
	c.Poll() // retry
	dispatch(t, c, clean)
	if a := c.Poll(); a.Kind != ActionMachineCheck {
		t.Fatalf("unprotected cache fault = %v, want machine check (false abort per Section 2.4)", a.Kind)
	}
}

func TestCheckerObserveModeNeverRecovers(t *testing.T) {
	c := newChecker(t, ModeObserve)
	dispatch(t, c, trace.Event{StartPC: 5, Len: 4, Sig: 0xabc})
	pollCommit(c)
	dispatch(t, c, trace.Event{StartPC: 5, Len: 4, Sig: 0xabd})
	a := pollCommit(c)
	if a.Kind != ActionProceed {
		t.Fatalf("observe mode acted: %v", a.Kind)
	}
	det := c.Detections()
	if len(det) != 1 || det[0].StartPC != 5 || det[0].AccessSig != 0xabd || det[0].CachedSig != 0xabc {
		t.Fatalf("detections: %+v", det)
	}
	if c.PendingTraces() != 0 {
		t.Fatal("observe mode must still free entries")
	}
}

func TestCheckerObserveRecordsDetectionOnce(t *testing.T) {
	c := newChecker(t, ModeObserve)
	dispatch(t, c, trace.Event{StartPC: 5, Len: 4, Sig: 0xabc})
	pollCommit(c)
	dispatch(t, c, trace.Event{StartPC: 5, Len: 4, Sig: 0xabd})
	// Several instructions of the faulty trace poll before the end commits.
	c.Poll()
	c.Poll()
	c.Poll()
	c.CommitTraceEnd()
	if got := len(c.Detections()); got != 1 {
		t.Fatalf("detections = %d, want 1 (deduplicated per entry)", got)
	}
}

func TestCheckerBranchRollback(t *testing.T) {
	c := newChecker(t, ModeFull)
	seqA := dispatch(t, c, trace.Event{StartPC: 1, Len: 2, Sig: 0x1})
	dispatch(t, c, trace.Event{StartPC: 2, Len: 2, Sig: 0x2})
	dispatch(t, c, trace.Event{StartPC: 3, Len: 2, Sig: 0x3})
	c.RollbackTo(seqA) // branch at end of trace A mispredicted
	if c.PendingTraces() != 1 {
		t.Fatalf("pending = %d, want 1", c.PendingTraces())
	}
	if a := pollCommit(c); a.Kind != ActionProceed {
		t.Fatalf("commit after rollback = %v", a.Kind)
	}
	if c.Stats().Squashed != 2 {
		t.Fatalf("squashed = %d", c.Stats().Squashed)
	}
}

func TestCheckerROBCapacityStallsDispatch(t *testing.T) {
	c := newChecker(t, ModeFull)
	for i := 0; i < 64; i++ {
		if _, ok := c.DispatchTrace(trace.Event{StartPC: uint64(i), Len: 1, Sig: 1}, false); !ok {
			t.Fatalf("dispatch %d failed early", i)
		}
	}
	if !c.Full() {
		t.Fatal("ROB should be full at 64")
	}
	if _, ok := c.DispatchTrace(trace.Event{StartPC: 99, Len: 1}, false); ok {
		t.Fatal("dispatch into full ROB succeeded")
	}
	pollCommit(c) // free head
	if _, ok := c.DispatchTrace(trace.Event{StartPC: 99, Len: 1}, false); !ok {
		t.Fatal("dispatch after free failed")
	}
}

func TestCheckerFlushAll(t *testing.T) {
	c := newChecker(t, ModeFull)
	dispatch(t, c, trace.Event{StartPC: 1, Len: 1})
	dispatch(t, c, trace.Event{StartPC: 2, Len: 1})
	c.FlushAll()
	if c.PendingTraces() != 0 {
		t.Fatal("flush incomplete")
	}
	if _, ok := c.HeadState(); ok {
		t.Fatal("head state on empty ROB")
	}
}

func TestCheckerInvalidControlStateForcesRetry(t *testing.T) {
	c := newChecker(t, ModeFull)
	seq := dispatch(t, c, trace.Event{StartPC: 7, Len: 3, Sig: 0x1})
	// Inject a control-bit fault: two-hot state.
	entry := c.rob.At(seq)
	entry.State = sig.ControlState(0b0011)
	a := c.Poll()
	if a.Kind != ActionRetry || a.RestartPC != 7 {
		t.Fatalf("invalid control state action = %+v", a)
	}
}

func TestCheckerInvalidControlStateObserveProceeds(t *testing.T) {
	c := newChecker(t, ModeObserve)
	seq := dispatch(t, c, trace.Event{StartPC: 7, Len: 3, Sig: 0x1})
	c.rob.At(seq).State = sig.ControlState(0b0000)
	if a := c.Poll(); a.Kind != ActionProceed {
		t.Fatalf("observe invalid state = %v", a.Kind)
	}
	if len(c.Detections()) != 1 {
		t.Fatal("control-bit fault not recorded")
	}
}

func TestROBSequencing(t *testing.T) {
	r := NewROB(4)
	if r.Head() != nil {
		t.Fatal("empty head")
	}
	s0, _ := r.Alloc(ROBEntry{StartPC: 10})
	s1, _ := r.Alloc(ROBEntry{StartPC: 11})
	if s1 != s0+1 {
		t.Fatalf("sequence numbers: %d %d", s0, s1)
	}
	if r.Head().StartPC != 10 {
		t.Fatal("head wrong")
	}
	if r.At(s1).StartPC != 11 {
		t.Fatal("At wrong")
	}
	if r.At(99) != nil {
		t.Fatal("At out of range")
	}
	r.PopHead()
	if r.Head().StartPC != 11 {
		t.Fatal("pop wrong")
	}
}

func TestROBWrapAround(t *testing.T) {
	r := NewROB(4)
	for round := 0; round < 5; round++ {
		for i := 0; i < 4; i++ {
			if _, ok := r.Alloc(ROBEntry{StartPC: uint64(round*4 + i)}); !ok {
				t.Fatalf("alloc failed round %d i %d", round, i)
			}
		}
		if _, ok := r.Alloc(ROBEntry{}); ok {
			t.Fatal("over-alloc succeeded")
		}
		for i := 0; i < 4; i++ {
			if got := r.Head().StartPC; got != uint64(round*4+i) {
				t.Fatalf("head = %d", got)
			}
			r.PopHead()
		}
	}
}

func TestROBSquashAfter(t *testing.T) {
	r := NewROB(8)
	var seqs []uint64
	for i := 0; i < 5; i++ {
		s, _ := r.Alloc(ROBEntry{StartPC: uint64(i)})
		seqs = append(seqs, s)
	}
	r.SquashAfter(seqs[2])
	if r.Len() != 3 {
		t.Fatalf("len after squash = %d", r.Len())
	}
	// Squashing to an already-committed entry empties the ROB.
	r2 := NewROB(8)
	sOld, _ := r2.Alloc(ROBEntry{})
	r2.PopHead()
	r2.Alloc(ROBEntry{})
	r2.SquashAfter(sOld)
	if r2.Len() != 0 {
		t.Fatalf("len = %d, want 0", r2.Len())
	}
}

func TestNewCheckerValidation(t *testing.T) {
	if _, err := NewChecker(Config{Entries: 100}, ModeFull); err == nil {
		t.Fatal("bad entries accepted")
	}
	if _, err := NewChecker(DefaultConfig(), Mode(0)); err == nil {
		t.Fatal("bad mode accepted")
	}
}
