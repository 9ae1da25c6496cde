package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/program"
)

type commitRecord struct {
	pc uint64
	o  isa.Outcome
}

// TestSnapshotResumeBitIdentical is the snapshot layer's correctness bar: a
// machine restored from a snapshot must produce exactly the commit stream,
// final Result, architectural state, checker statistics and extension
// counters of the machine that kept running — across the ITR, rename-ITR,
// checkpoint, TAC and redundancy variants. Each variant restores into a fresh
// CPU and into a dirty one that first ran 9000 decode events on its own (past
// the capture point), so every copy into
// existing storage (the fetch-queue ring included) is exercised; right after
// Restore the restored plain state must equal the captured machine's (==
// also keeps the machine struct comparable).
func TestSnapshotResumeBitIdentical(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"itr", func(*Config) {}},
		{"rename-itr", func(c *Config) { c.RenameITREnabled = true }},
		{"checkpoint", func(c *Config) { c.CheckpointEnabled = true }},
		{"checkpoint-strict", func(c *Config) {
			c.CheckpointEnabled = true
			c.CheckpointPolicy = CheckpointStrict
			c.CheckpointIntervalCycles = 256
		}},
		{"tac", func(c *Config) { c.TACEnabled = true }},
		{"dual-decode", func(c *Config) {
			c.ITREnabled = false
			c.Redundancy = RedundancyDualDecode
		}},
		{"time-redundant", func(c *Config) {
			c.ITREnabled = false
			c.Redundancy = RedundancyTimeRedundant
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, dirty := range []bool{false, true} {
				name := "fresh"
				if dirty {
					name = "dirty"
				}
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					v.mod(&cfg)
					checkSnapshotResume(t, cfg, dirty)
				})
			}
		})
	}
}

// checkSnapshotResume runs one TestSnapshotResumeBitIdentical case.
func checkSnapshotResume(t *testing.T, cfg Config, dirty bool) {
	p := loopProgram(t, 60, 40)
	const budget = 40_000
	const snapAt = 6_000 // decode events before the snapshot

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
	if snap.DecodeEvents < snapAt {
		t.Fatalf("pilot stopped at %d decode events, want >= %d", snap.DecodeEvents, snapAt)
	}
	if int64(len(coldStream)) != snap.Committed {
		t.Fatalf("snapshot Committed = %d, observer saw %d commits", snap.Committed, len(coldStream))
	}
	prefix := len(coldStream)

	warm, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dirty {
		// Stop mid-flight past the capture point (the program halts near
		// cycle 5300), so ROB, wheel, overlay and fetch queue hold live
		// entries the restore must overwrite.
		warm.RunUntilDecode(budget, 9_000)
	}
	if err := warm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if warm.machine != cold.machine {
		t.Fatalf("restored plain state differs:\ncold %+v\nwarm %+v", cold.machine, warm.machine)
	}
	var warmStream []commitRecord
	warm.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		warmStream = append(warmStream, commitRecord{pc, *o})
	})

	coldRes := cold.Run(budget - cold.CycleCount())
	warmRes := warm.Run(budget - snap.Cycle)

	if coldRes != warmRes {
		t.Fatalf("results differ:\ncold %+v\nwarm %+v", coldRes, warmRes)
	}
	if !reflect.DeepEqual(coldStream[prefix:], warmStream) {
		t.Fatalf("commit streams differ: cold suffix %d commits, warm %d commits",
			len(coldStream)-prefix, len(warmStream))
	}
	if cold.Committed().R != warm.Committed().R ||
		cold.Committed().F != warm.Committed().F ||
		cold.Committed().PC != warm.Committed().PC {
		t.Fatal("final architectural registers differ")
	}
	if cold.TAC() != warm.TAC() {
		t.Fatalf("TAC stats differ:\ncold %+v\nwarm %+v", cold.TAC(), warm.TAC())
	}
	if cold.Redundancy() != warm.Redundancy() {
		t.Fatalf("redundancy stats differ:\ncold %+v\nwarm %+v", cold.Redundancy(), warm.Redundancy())
	}
	if cold.Checker() == nil {
		return
	}
	if cold.Checker().Stats() != warm.Checker().Stats() {
		t.Fatalf("checker stats differ:\ncold %+v\nwarm %+v",
			cold.Checker().Stats(), warm.Checker().Stats())
	}
	if cs, ws := cold.Checker().Cache().Stats(), warm.Checker().Cache().Stats(); cs != ws {
		t.Fatalf("ITR cache stats differ:\ncold %+v\nwarm %+v", cs, ws)
	}
}

// TestSnapshotResumeWithFault checks the fast path the fault campaign relies
// on: a fault injected strictly after the snapshot point produces the same
// machine behavior whether the run starts cold or resumes from the snapshot.
func TestSnapshotResumeWithFault(t *testing.T) {
	p := loopProgram(t, 60, 40)
	cfg := DefaultConfig()
	cfg.ITRMode = core.ModeObserve
	const budget = 40_000
	const snapAt = 5_000
	const faultAt = 9_000 // decode event of the injected bit flip

	flipHook := func() FaultHook {
		done := false
		return func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
			if !done && i == faultAt {
				done = true
				return d.FlipBit(3)
			}
			return d
		}
	}

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
	if !reflect.DeepEqual(cold.Checker().Detections(), warm.Checker().Detections()) {
		t.Fatal("detections differ between cold run and snapshot resume")
	}
}

// snapMemHash folds a snapshot's entire memory view into one value,
// order-independently (pages are visited in map order): per-page FNV-1a over
// the page ID and words, XOR-combined across pages.
func snapMemHash(s *Snapshot) uint64 {
	var h uint64
	s.arch.Mem.VisitPages(func(id uint64, words []uint64) {
		ph := uint64(1469598103934665603)
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				ph ^= (v >> (8 * i)) & 0xff
				ph *= 1099511628211
			}
		}
		mix(id)
		for _, w := range words {
			mix(w)
		}
		h ^= ph
	})
	return h
}

// TestSnapshotConcurrentRestoreImmutable models the fault campaign's sharing
// pattern: one pilot snapshot is restored into many CPUs concurrently, each
// diverging under a different injected fault and storing into pages it shares
// copy-on-write with the snapshot, while the pilot machine itself keeps
// running past the capture point. The snapshot's memory view must come out
// bit-identical, and under -race this proves concurrent restores never touch
// shared pages unsynchronized.
func TestSnapshotConcurrentRestoreImmutable(t *testing.T) {
	p := loopProgram(t, 60, 40)
	cfg := DefaultConfig()
	cfg.ITRMode = core.ModeObserve
	const budget = 40_000

	pilot, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pilot.RunUntilDecode(budget, 5_000)
	snap := pilot.Snapshot()
	before := snapMemHash(snap)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cpu, err := New(p, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if err := cpu.Restore(snap); err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			faultAt := snap.DecodeEvents + int64(100+13*w)
			done := false
			cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
				if !done && i == faultAt {
					done = true
					return d.FlipBit(w % isa.SignalBits)
				}
				return d
			})
			cpu.Run(budget - snap.Cycle)
		}(w)
	}
	// The capturing machine keeps dirtying pages it shares with the snapshot.
	pilot.Run(budget - pilot.CycleCount())
	wg.Wait()

	if after := snapMemHash(snap); after != before {
		t.Fatalf("snapshot memory changed under concurrent restores: hash %#x -> %#x", before, after)
	}
}

// TestRestoreRejectsStructuralMismatch: a snapshot only restores into a CPU
// that runs the same program under a structurally matching configuration;
// only the checker mode may vary.
func TestRestoreRejectsStructuralMismatch(t *testing.T) {
	p := loopProgram(t, 4, 4)
	cfg := DefaultConfig()
	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(1_000)
	snap := cpu.Snapshot()

	bad := cfg
	bad.ROBSize = 64
	for _, foreign := range []struct {
		name string
		prog *program.Program
		cfg  Config
	}{
		{"different config", p, bad},
		{"same config, different program", loopProgram(t, 5, 4), cfg},
	} {
		other, err := New(foreign.prog, foreign.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Restore(snap); err == nil {
			t.Fatalf("%s: restore must fail", foreign.name)
		}
	}

	obs := cfg
	obs.ITRMode = core.ModeObserve
	ocpu, err := New(p, obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ocpu.Restore(snap); err != nil {
		t.Fatalf("mode-only mismatch must be allowed: %v", err)
	}
}

// TestRunUntilDecodeChunksMatchSingleRun: pausing at decode boundaries and
// resuming is invisible — the chunked machine ends in the same state as one
// that ran straight through.
func TestRunUntilDecodeChunksMatchSingleRun(t *testing.T) {
	p := loopProgram(t, 30, 20)
	cfg := DefaultConfig()
	const budget = 25_000

	whole, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wres := whole.Run(budget)

	chunked, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cres Result
	for stop := int64(1_000); ; stop += 1_000 {
		cres = chunked.RunUntilDecode(budget-chunked.CycleCount(), stop)
		if cres.Termination != TermBudget || chunked.CycleCount() >= budget {
			break
		}
	}
	if wres != cres {
		t.Fatalf("chunked run differs:\nwhole   %+v\nchunked %+v", wres, cres)
	}
	if whole.Committed().R != chunked.Committed().R || whole.Committed().PC != chunked.Committed().PC {
		t.Fatal("final architectural state differs")
	}
}
