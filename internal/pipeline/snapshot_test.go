package pipeline

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/workload"
)

type commitRecord struct {
	pc uint64
	o  isa.Outcome
}

// TestSnapshotResumeBitIdentical is the snapshot layer's correctness bar: a
// machine restored from a snapshot must produce exactly the commit stream,
// final Result, architectural state, checker statistics and extension
// counters of the machine that kept running — across the ITR, rename-ITR,
// checkpoint and redundancy variants, and on ROBs whose capacity is below
// their ring length (rob24: a ring shorter than one bitset word; rob200: a
// four-word ring). Each variant restores into a fresh
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
		{"checkpoint-256", func(c *Config) {
			c.CheckpointEnabled = true
			c.CheckpointIntervalCycles = 256
		}},
		{"dual-decode", func(c *Config) {
			c.ITREnabled = false
			c.Redundancy = RedundancyDualDecode
		}},
		{"time-redundant", func(c *Config) {
			c.ITREnabled = false
			c.Redundancy = RedundancyTimeRedundant
		}},
		{"rob24", func(c *Config) { c.ROBSize = 24 }},
		{"rob200", func(c *Config) { c.ROBSize = 200 }},
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
	if !reflect.DeepEqual(copyTables(cold), copyTables(warm)) {
		t.Fatal("final predictor or ITR-cache tables differ")
	}
	if cold.Checker() == nil {
		return
	}
	if cold.Checker().Stats() != warm.Checker().Stats() {
		t.Fatalf("checker stats differ:\ncold %+v\nwarm %+v",
			cold.Checker().Stats(), warm.Checker().Stats())
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

// tableCopy is a flat copy of the tables a snapshot holds as shared chunks
// (the predictor's BTB and both checkers' ITR-cache lines) plus the state
// beside them: the oracle the chunked form is checked against.
type tableCopy struct {
	btb            []btbEntry
	btbLRU         []uint64
	gshare         []uint8
	history, clock uint64
	itr, rename    []cache.Line
}

func copyTables(c *CPU) tableCopy {
	lines := func(ch *core.Checker) []cache.Line {
		if ch == nil {
			return nil
		}
		var out []cache.Line
		ch.Cache().Visit(func(ln *cache.Line) { out = append(out, *ln) })
		return out
	}
	t := tableCopy{
		btb:     slices.Clone(c.pred.btb),
		btbLRU:  slices.Clone(c.pred.btbLRU),
		gshare:  slices.Clone(c.pred.gshare),
		history: c.pred.history,
		clock:   c.pred.clock,
	}
	t.itr = lines(c.Checker())
	t.rename = lines(c.RenameChecker())
	return t
}

// TestSnapshotSeriesRestoresFlatTables models the pilot's snapshot series:
// captures 2048 decode events apart, each sharing the BTB and ITR-cache
// chunks the machine left unchanged since the capture before, while the
// machine keeps running and rewriting its tables. Afterwards every snapshot
// of the series must restore exactly the tables a flat copy took at its
// capture — into a fresh CPU, and in shuffled order into one reused CPU
// whose every restore moves the base its next capture shares against.
func TestSnapshotSeriesRestoresFlatTables(t *testing.T) {
	// gcc's first 16k decode events still install BTB and ITR-cache
	// entries, so its series mixes shared and copied chunks.
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RenameITREnabled = true
	const budget = 40_000

	pilot, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	var want []tableCopy
	var shared, copied [2]int // BTB, ITR cache; past the first capture
	for k := int64(1); k <= 8; k++ {
		pilot.RunUntilDecode(budget-pilot.CycleCount(), k*2048)
		s := pilot.Snapshot()
		snaps = append(snaps, s)
		want = append(want, copyTables(pilot))
		if k > 1 {
			sh, cp := s.pred.btb.Sharing()
			shared[0], copied[0] = shared[0]+sh, copied[0]+cp
			sh, cp = s.det.(*core.CheckerState).Sharing()
			shared[1], copied[1] = shared[1]+sh, copied[1]+cp
		}
	}
	for i, table := range []string{"BTB", "ITR-cache"} {
		if shared[i] == 0 || copied[i] == 0 {
			t.Fatalf("series shared %d and copied %d %s chunks; want both > 0", shared[i], copied[i], table)
		}
	}
	pilot.Run(budget - pilot.CycleCount())

	reused, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{5, 0, 7, 3, 1, 6, 2, 4} {
		fresh, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cpu := range []*CPU{fresh, reused} {
			if err := cpu.Restore(snaps[i]); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(copyTables(cpu), want[i]) {
				t.Fatalf("snapshot %d does not restore the tables captured", i)
			}
		}
		// Run on and capture against the restored snapshot as base.
		reused.RunUntilDecode(budget, snaps[i].DecodeEvents+500)
		got := copyTables(reused)
		s := reused.Snapshot()
		if err := fresh.Restore(s); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(copyTables(fresh), got) {
			t.Fatalf("capture after restoring snapshot %d is not exact", i)
		}
	}
}

// TestSnapshotConcurrentRestoreImmutable models the fault campaign's sharing
// pattern: two pilot snapshots of one series, which share their unchanged
// BTB and ITR-cache chunks, are restored into many CPUs concurrently, each
// diverging under a different injected fault, storing into pages it shares
// copy-on-write with the snapshots, switching to the other snapshot and
// capturing against the shared chunks, while the pilot machine itself keeps
// running past the capture points. Both snapshots' memory views and tables
// must come out bit-identical, and under -race this proves concurrent
// restores never touch shared pages or chunks unsynchronized.
func TestSnapshotConcurrentRestoreImmutable(t *testing.T) {
	p := loopProgram(t, 60, 40)
	cfg := DefaultConfig()
	cfg.ITRMode = core.ModeObserve
	const budget = 40_000

	pilot, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [2]*Snapshot
	var memBefore [2]uint64
	var tablesBefore [2]tableCopy
	for i, stop := range []int64{5_000, 5_000 + 2048} {
		pilot.RunUntilDecode(budget-pilot.CycleCount(), stop)
		snaps[i] = pilot.Snapshot()
		memBefore[i] = snapMemHash(snaps[i])
		tablesBefore[i] = copyTables(pilot)
	}
	if sh, _ := snaps[1].pred.btb.Sharing(); sh == 0 {
		t.Fatal("the second snapshot shares no BTB chunk with the first")
	}
	if sh, _ := snaps[1].det.(*core.CheckerState).Sharing(); sh == 0 {
		t.Fatal("the second snapshot shares no ITR-cache chunk with the first")
	}

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
			for _, snap := range []*Snapshot{snaps[w%2], snaps[1-w%2]} {
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
				cpu.RunUntilDecode(budget-snap.Cycle, snap.DecodeEvents+3000)
				cpu.Snapshot()
				cpu.Run(budget - cpu.CycleCount())
			}
		}(w)
	}
	// The capturing machine keeps dirtying pages it shares with the snapshots.
	pilot.Run(budget - pilot.CycleCount())
	wg.Wait()

	for i, snap := range snaps {
		if after := snapMemHash(snap); after != memBefore[i] {
			t.Fatalf("snapshot %d memory changed under concurrent restores: hash %#x -> %#x", i, memBefore[i], after)
		}
		cpu, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cpu.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(copyTables(cpu), tablesBefore[i]) {
			t.Fatalf("snapshot %d tables changed under concurrent restores", i)
		}
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
