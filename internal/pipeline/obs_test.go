package pipeline

import (
	"testing"

	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/obs"
)

// TestProbeExactCounts pins the telemetry contract on a deterministic
// workload: the shared probe's merged counters must equal the machine's own
// Result counters exactly — run-boundary delta publication must lose
// nothing.
func TestProbeExactCounts(t *testing.T) {
	p := loopProgram(t, 6, 24)
	cfg := DefaultConfig()
	cfg.ITREnabled = true
	probe := &Probe{}
	cfg.Probe = probe

	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(1 << 20)
	if res.Termination != TermHalt {
		t.Fatalf("termination = %v, want halt", res.Termination)
	}

	if got := probe.Cycles.Load(); got != res.Cycles {
		t.Errorf("probe cycles = %d, want %d", got, res.Cycles)
	}
	if got := probe.DecodeEvents.Load(); got != res.DecodeEvents {
		t.Errorf("probe decode events = %d, want %d", got, res.DecodeEvents)
	}
	if got := probe.SnapshotCaptures.Load(); got != 0 {
		t.Errorf("probe captures = %d, want 0", got)
	}

	// A second machine on the same probe accumulates; split the run into
	// several Run calls so boundary publication fires more than once.
	cpu2, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 50 && total < res.Cycles; i++ {
		r := cpu2.Run(100)
		total = r.Cycles
		if r.Termination == TermHalt {
			break
		}
	}
	if got := probe.Cycles.Load(); got != res.Cycles+total {
		t.Errorf("shared probe cycles = %d, want %d", got, res.Cycles+total)
	}
}

// TestProbeSnapshotAndTraceEvents pins the snapshot counters and the trace
// ring's capture/restore event stream against an exactly-known sequence.
func TestProbeSnapshotAndTraceEvents(t *testing.T) {
	p := loopProgram(t, 6, 24)
	cfg := DefaultConfig()
	cfg.ITREnabled = true
	probe := &Probe{}
	cfg.Probe = probe
	tr := obs.NewTracer(64)
	cfg.Trace = tr.Ring("cpu")

	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(200)
	snap := cpu.Snapshot()
	cpu.Run(200)
	if err := cpu.Restore(snap); err != nil {
		t.Fatal(err)
	}
	cpu.Run(200)

	if got := probe.SnapshotCaptures.Load(); got != 1 {
		t.Errorf("captures = %d, want 1", got)
	}
	if got := probe.SnapshotRestores.Load(); got != 1 {
		t.Errorf("restores = %d, want 1", got)
	}

	ring := cfg.Trace
	var captures, restores int
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.EvSnapshotCapture:
			captures++
			if e.Cycle != snap.Cycle {
				t.Errorf("capture event cycle = %d, want %d", e.Cycle, snap.Cycle)
			}
		case obs.EvSnapshotRestore:
			restores++
			if e.Cycle != snap.Cycle {
				t.Errorf("restore event cycle = %d, want %d", e.Cycle, snap.Cycle)
			}
		}
	}
	if captures != 1 || restores != 1 {
		t.Errorf("ring has %d captures, %d restores, want 1 and 1", captures, restores)
	}

	// The first capture had no base, so it copied every BTB and ITR-cache
	// chunk; a capture after the restore shares chunks with the snapshot.
	tables := int64(cfg.BTBEntries/cache.ChunkLen + cfg.ITR.Entries/cache.ChunkLen)
	if sh, cp := probe.SnapshotChunksShared.Load(), probe.SnapshotChunksCopied.Load(); sh != 0 || cp != tables {
		t.Errorf("first capture: %d chunks shared, %d copied; want 0, %d", sh, cp, tables)
	}
	cpu.Snapshot()
	sh, cp := probe.SnapshotChunksShared.Load(), probe.SnapshotChunksCopied.Load()-tables
	if sh == 0 || sh+cp != tables {
		t.Errorf("second capture: %d chunks shared, %d copied; want some shared, %d in all", sh, cp, tables)
	}
}

// TestDetectionStamps checks that a detected fault gets a cycle-stamped
// detection aligned with the detector's own detection log, and that
// Restore rewinds the stamps.
func TestDetectionStamps(t *testing.T) {
	for _, backend := range []string{"itr", "reptfd", "dme"} {
		t.Run(backend, func(t *testing.T) {
			p := loopProgram(t, 60, 40)
			cfg := DefaultConfig()
			cfg.ITREnabled = true
			cfg.Detector = backend
			cfg.ITRMode = core.ModeObserve
			cpu, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a lat bit in the first right-path decode event past the
			// warmup, as in TestDetectorBackendsDetectInjectedFault — every
			// backend observes it.
			fired := false
			var fireCycle int64
			cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
				if !fired && i >= 9_000 && !wrongPath {
					fired = true
					fireCycle = cpu.CycleCount()
					return d.FlipBit(40)
				}
				return d
			})
			cpu.Run(40_000)
			dets := cpu.Detector().Base().Detections()
			stamps := cpu.DetectionStamps()
			if len(dets) == 0 {
				t.Fatalf("backend %s did not detect the injected flip", backend)
			}
			if len(stamps) != len(dets) {
				t.Fatalf("stamps = %d, detections = %d", len(stamps), len(dets))
			}
			for i, s := range stamps {
				if s.Cycle < fireCycle {
					t.Errorf("stamp %d at cycle %d predates injection at %d", i, s.Cycle, fireCycle)
				}
				if i > 0 && s.Cycle < stamps[i-1].Cycle {
					t.Errorf("stamps not monotonic: %v", stamps)
				}
			}
		})
	}
}
