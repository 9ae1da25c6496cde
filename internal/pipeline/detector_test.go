package pipeline

import (
	"reflect"
	"testing"

	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/isa"
)

// firstArchFlip returns a FaultHook that flips bit in the first right-path
// decode event at or after at, so the corruption is guaranteed to reach a
// committed trace on a well-predicted loop.
func firstArchFlip(at int64, bit int) FaultHook {
	done := false
	return func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		if !done && i >= at && !wrongPath {
			done = true
			return d.FlipBit(bit)
		}
		return d
	}
}

// TestDetectorBackendsDetectInjectedFault checks the cross-backend contract
// the fault campaign relies on: every backend observes an injected
// signature-visible bit flip (bit 40 is a lat bit — timing-only, so the run
// itself completes normally) and records it through the shared Detector
// surface.
func TestDetectorBackendsDetectInjectedFault(t *testing.T) {
	for _, name := range detect.Names() {
		t.Run(name, func(t *testing.T) {
			p := loopProgram(t, 60, 40)
			cfg := DefaultConfig()
			cfg.ITRMode = core.ModeObserve
			cfg.Detector = name
			cpu, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cpu.SetFaultHook(firstArchFlip(9_000, 40))
			cpu.Run(40_000)
			det := cpu.Detector().Base()
			if det.Stats().Mismatches == 0 {
				t.Fatalf("backend %s missed the injected fault: %+v", name, det.Stats())
			}
			if len(det.Detections()) == 0 {
				t.Fatalf("backend %s recorded no detection", name)
			}
		})
	}
}

// TestDetectorStateRoundTrip is the capture/restore property test: for every
// backend, a state captured through the Detector interface survives arbitrary
// further execution and restores bit-identically — the frame's plain
// by-value state, observable stats and detection log come back exactly as
// captured.
func TestDetectorStateRoundTrip(t *testing.T) {
	for _, name := range detect.Names() {
		t.Run(name, func(t *testing.T) {
			p := loopProgram(t, 60, 40)
			cfg := DefaultConfig()
			cfg.ITRMode = core.ModeObserve
			cfg.Detector = name
			const budget = 40_000
			cpu, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Inject before the capture point so the captured state carries a
			// non-empty detection log.
			cpu.SetFaultHook(firstArchFlip(4_000, 40))
			cpu.RunUntilDecode(budget, 8_000)

			det := cpu.Detector()
			st := det.CaptureState()
			wantStats := det.Base().Stats()
			wantDetections := det.Base().Detections()
			if len(wantDetections) == 0 {
				t.Fatalf("backend %s: no detection before capture; the round trip would be vacuous", name)
			}

			// Mutate: keep executing well past the capture point.
			cpu.Run(budget - cpu.CycleCount())
			if det.Base().Stats() == wantStats {
				t.Fatalf("backend %s: stats unchanged after further execution", name)
			}

			if err := det.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			if !det.Base().SameVals(st) {
				t.Fatal("frame plain state did not round-trip")
			}
			if got := det.Base().Stats(); got != wantStats {
				t.Fatalf("stats did not round-trip:\ngot  %+v\nwant %+v", got, wantStats)
			}
			if got := det.Base().Detections(); !reflect.DeepEqual(got, wantDetections) {
				t.Fatalf("detection log did not round-trip: got %d entries, want %d", len(got), len(wantDetections))
			}
		})
	}
}

// TestDetectorSnapshotResumeBitIdentical extends the snapshot layer's
// correctness bar to every backend: with a fault injected strictly after the
// snapshot point, a machine restored from the snapshot must replay exactly
// the commit stream, final Result, detector statistics and detection log of
// the machine that kept running.
func TestDetectorSnapshotResumeBitIdentical(t *testing.T) {
	for _, name := range detect.Names() {
		t.Run(name, func(t *testing.T) {
			p := loopProgram(t, 60, 40)
			cfg := DefaultConfig()
			cfg.ITRMode = core.ModeObserve
			cfg.Detector = name
			const budget = 40_000
			const snapAt = 5_000
			const faultAt = 9_000

			flipHook := func() FaultHook { return firstArchFlip(faultAt, 3) }

			cold, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var coldStream []commitRecord
			cold.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
				coldStream = append(coldStream, commitRecord{pc, *o})
			})
			cold.SetFaultHook(flipHook())
			cold.RunUntilDecode(budget, snapAt)
			snap := cold.Snapshot()
			prefix := len(coldStream)
			coldRes := cold.Run(budget - cold.CycleCount())

			warm, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var warmStream []commitRecord
			warm.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
				warmStream = append(warmStream, commitRecord{pc, *o})
			})
			if err := warm.Restore(snap); err != nil {
				t.Fatal(err)
			}
			warm.SetFaultHook(flipHook())
			warmRes := warm.Run(budget - snap.Cycle)

			if coldRes != warmRes {
				t.Fatalf("results differ:\ncold %+v\nwarm %+v", coldRes, warmRes)
			}
			if !reflect.DeepEqual(coldStream[prefix:], warmStream) {
				t.Fatal("faulty commit streams differ between cold run and snapshot resume")
			}
			if cs, ws := cold.Detector().Base().Stats(), warm.Detector().Base().Stats(); cs != ws {
				t.Fatalf("detector stats differ:\ncold %+v\nwarm %+v", cs, ws)
			}
			if !reflect.DeepEqual(cold.Detector().Base().Detections(), warm.Detector().Base().Detections()) {
				t.Fatal("detections differ between cold run and snapshot resume")
			}
		})
	}
}

// TestDetectorSnapshotResumeFullMode runs the same cold/warm comparison with
// the full protocol active and no fault: the rivals' extra machinery (DME's
// shadow execution, RepTFD's open-chunk digests) must snapshot and restore
// without perturbing a clean run.
func TestDetectorSnapshotResumeFullMode(t *testing.T) {
	for _, name := range detect.Names() {
		t.Run(name, func(t *testing.T) {
			p := loopProgram(t, 60, 40)
			cfg := DefaultConfig()
			cfg.Detector = name
			const budget = 40_000
			const snapAt = 6_000

			cold, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var coldStream []commitRecord
			cold.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
				coldStream = append(coldStream, commitRecord{pc, *o})
			})
			cold.RunUntilDecode(budget, snapAt)
			snap := cold.Snapshot()
			prefix := len(coldStream)
			coldRes := cold.Run(budget - cold.CycleCount())

			warm, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var warmStream []commitRecord
			warm.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
				warmStream = append(warmStream, commitRecord{pc, *o})
			})
			if err := warm.Restore(snap); err != nil {
				t.Fatal(err)
			}
			warmRes := warm.Run(budget - snap.Cycle)

			if coldRes != warmRes {
				t.Fatalf("results differ:\ncold %+v\nwarm %+v", coldRes, warmRes)
			}
			if !reflect.DeepEqual(coldStream[prefix:], warmStream) {
				t.Fatal("commit streams differ between cold run and snapshot resume")
			}
			if cold.Committed().R != warm.Committed().R || cold.Committed().PC != warm.Committed().PC {
				t.Fatal("final architectural registers differ")
			}
			if cs, ws := cold.Detector().Base().Stats(), warm.Detector().Base().Stats(); cs != ws {
				t.Fatalf("detector stats differ:\ncold %+v\nwarm %+v", cs, ws)
			}
		})
	}
}

// TestDetectorProbeCounters checks the probe surfaces commit-time detector
// polls and detections for every backend: polls track committed instructions
// and the detection counter matches the detector's own mismatch count.
func TestDetectorProbeCounters(t *testing.T) {
	for _, name := range detect.Names() {
		t.Run(name, func(t *testing.T) {
			p := loopProgram(t, 60, 40)
			cfg := DefaultConfig()
			cfg.ITRMode = core.ModeObserve
			cfg.Detector = name
			probe := &Probe{}
			cfg.Probe = probe
			cpu, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cpu.SetFaultHook(firstArchFlip(9_000, 40))
			res := cpu.Run(40_000)

			// Every committed instruction polls the detector at least once
			// (repolls after a stall or retry may add more).
			if got := probe.DetectorPolls.Load(); got < res.Committed {
				t.Fatalf("probe polls = %d, want >= committed instructions (%d)", got, res.Committed)
			}
			want := cpu.Detector().Base().Mismatches()
			if got := probe.DetectorDetections.Load(); got != want {
				t.Fatalf("probe detections = %d, detector reports %d mismatches", got, want)
			}
		})
	}
}
