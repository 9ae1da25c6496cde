package fault

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/workload"
)

// TestCampaignSnapshotFastPathBitIdentical is the snapshot layer's
// correctness bar: for a fixed seed, the snapshot fast-forward campaign must
// produce Detail slices bit-identical to the cold path — same categories,
// same observe- and verify-run facts, for every injection — so the Figure 8
// percentages are unchanged by the optimization. It holds both on the exact
// path and with the decided-outcome engine's early exits.
func TestCampaignSnapshotFastPathBitIdentical(t *testing.T) {
	variants := []struct {
		name     string
		interval int64
		ckpt     bool
	}{
		{"default-interval", 0, false},
		{"fine-interval", 2_000, false},
		{"checkpoint-verify", 2_000, true}, // verify runs must fall back cold
	}
	p := testProgram(t)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, exact := range []bool{true, false} {
				t.Run(fmt.Sprintf("exact=%v", exact), func(t *testing.T) {
					base := DefaultCampaignConfig()
					base.Faults = 50
					base.Workers = 4
					base.Experiment = quickConfig()
					base.Experiment.Checkpoint = v.ckpt
					base.Experiment.Exact = exact

					cold := base
					cold.Experiment.SnapshotInterval = -1
					warm := base
					warm.Experiment.SnapshotInterval = v.interval

					cres, err := RunCampaign("cold", p, cold)
					if err != nil {
						t.Fatal(err)
					}
					wres, err := RunCampaign("warm", p, warm)
					if err != nil {
						t.Fatal(err)
					}

					if !reflect.DeepEqual(cres.Details, wres.Details) {
						for i := range cres.Details {
							if cres.Details[i] != wres.Details[i] {
								t.Fatalf("Detail %d differs:\ncold %+v\nwarm %+v",
									i, cres.Details[i], wres.Details[i])
							}
						}
						t.Fatal("Detail slices differ")
					}
					if !reflect.DeepEqual(cres.Counts, wres.Counts) {
						t.Fatalf("category counts differ:\ncold %+v\nwarm %+v", cres.Counts, wres.Counts)
					}
					if cres.Snapshots != 0 || cres.SnapshotPages != 0 {
						t.Fatalf("cold path reported snapshots: %d (%d pages)", cres.Snapshots, cres.SnapshotPages)
					}
					if wres.Snapshots == 0 || wres.SnapshotPages == 0 {
						t.Fatalf("fast path took no snapshots: %d (%d pages)", wres.Snapshots, wres.SnapshotPages)
					}
					// COW sharing: the series references at least as many pages as
					// it distinctly holds, and every retained snapshot past the
					// first shares its predecessor's unchanged pages.
					if wres.SnapshotOwnedPages == 0 || wres.SnapshotOwnedPages > wres.SnapshotPages {
						t.Fatalf("snapshot footprint inconsistent: %d referenced, %d distinct",
							wres.SnapshotPages, wres.SnapshotOwnedPages)
					}
					if wres.Snapshots > 1 && wres.SnapshotOwnedPages == wres.SnapshotPages {
						t.Fatalf("%d snapshots share no pages (%d referenced, %d distinct)",
							wres.Snapshots, wres.SnapshotPages, wres.SnapshotOwnedPages)
					}
				})
			}
		})
	}
}

// liveOutcomes executes p independently of the golden stream for n steps,
// returning each step's PC and outcome.
func liveOutcomes(p *program.Program, n int) ([]uint64, []isa.Outcome) {
	live := isa.NewArchState()
	live.PC = p.Entry
	pcs, outs := make([]uint64, n), make([]isa.Outcome, n)
	for i := range outs {
		pcs[i] = live.PC
		outs[i] = live.Step(p.Fetch(pcs[i]))
	}
	return pcs, outs
}

// TestGoldenStreamMatchesLiveGolden: the precomputed stream is exactly a
// live fault-free execution, and a cursor over it flags divergence.
func TestGoldenStreamMatchesLiveGolden(t *testing.T) {
	p := testProgram(t)
	s := NewGoldenStream(p)
	pcs, outs := liveOutcomes(p, 500)

	// Every entry matches an independent step-by-step execution, and
	// replaying the live commits through a cursor never diverges.
	cur := s.cursor(0)
	for i := range outs {
		if e := cur.at(i); cur.pc != pcs[i] || !e.matches(&outs[i]) {
			t.Fatalf("entry %d: stream (pc %d, %+v), live (pc %d, %+v)", i, cur.pc, *e, pcs[i], outs[i])
		}
		cur.observe(pcs[i], &outs[i])
	}
	if cur.diverged {
		t.Fatal("fault-free replay diverged")
	}

	// A wrong PC diverges, stickily.
	cur2 := s.cursor(0)
	cur2.observe(pcs[0]+1, &outs[0])
	cur2.observe(pcs[0], &outs[0])
	if !cur2.diverged {
		t.Fatal("PC mismatch not flagged")
	}

	// A seeked cursor expects entry 100's PC, and a corrupted outcome
	// diverges it mid-stream.
	cur3 := s.cursor(100)
	if cur3.pc != pcs[100] {
		t.Fatalf("seeked cursor expects pc %d, want %d", cur3.pc, pcs[100])
	}
	bad := outs[100]
	bad.NextPC ^= 1
	cur3.observe(pcs[100], &bad)
	if !cur3.diverged {
		t.Fatal("outcome mismatch not flagged by seeked cursor")
	}
}

// TestGoldenEntryPackedExact: a packed entry is exact. On a prefix of every
// coverage benchmark, its compare agrees with isa.Outcome.SameArchEffect
// against the entry's outcome with each field SameArchEffect reads mutated
// in turn, its apply leaves the same architectural state as ApplyRef, and
// the cursor's tracked PC is the executing instruction's.
func TestGoldenEntryPackedExact(t *testing.T) {
	if sz := unsafe.Sizeof(goldenEntry{}); sz > 32 {
		t.Fatalf("goldenEntry is %d bytes, want <= 32", sz)
	}
	mutations := map[string]func(o *isa.Outcome){
		"none":     func(o *isa.Outcome) {},
		"NextPC":   func(o *isa.Outcome) { o.NextPC ^= 1 },
		"Halt":     func(o *isa.Outcome) { o.Halt = !o.Halt },
		"RegWrite": func(o *isa.Outcome) { o.RegWrite = !o.RegWrite },
		"Reg":      func(o *isa.Outcome) { o.Reg ^= 1 },
		"RegFP":    func(o *isa.Outcome) { o.RegFP = !o.RegFP },
		"Value":    func(o *isa.Outcome) { o.Value ^= 1 },
		"MemWrite": func(o *isa.Outcome) { o.MemWrite = !o.MemWrite },
		"MemAddr":  func(o *isa.Outcome) { o.MemAddr ^= 8 },
		"MemWData": func(o *isa.Outcome) { o.MemWData ^= 1 },
		"MemWSize": func(o *isa.Outcome) { o.MemWSize ^= 1 },
	}
	const prefix = 3 * streamChunk
	for _, prof := range workload.CoverageSuite() {
		prog, err := workload.CachedProgram(prof)
		if err != nil {
			t.Fatal(err)
		}
		tab := prog.DecodeTable()
		cur := NewGoldenStream(prog).cursor(0)
		ref, packed := isa.NewArchState(), isa.NewArchState()
		ref.PC, packed.PC = prog.Entry, prog.Entry
		var o isa.Outcome
		stores := 0
		for i := range prefix {
			pc := ref.PC
			if cur.pc != pc {
				t.Fatalf("%s entry %d: cursor expects pc %d, reference at %d", prof.Name, i, cur.pc, pc)
			}
			ref.ExecInto(&o, tab.Signals(pc), pc)
			e := cur.at(i)
			for name, mutate := range mutations {
				g := o
				mutate(&g)
				if got, want := e.matches(&g), g.SameArchEffect(&o); got != want {
					t.Fatalf("%s entry %d (%v), %s mutated: packed compare %v, SameArchEffect %v",
						prof.Name, i, o, name, got, want)
				}
			}
			if o.MemWrite {
				stores++
			}
			ref.ApplyRef(&o)
			e.apply(packed)
			if packed.R != ref.R || packed.F != ref.F || packed.PC != ref.PC {
				t.Fatalf("%s entry %d (%v): packed apply registers or PC differ from ApplyRef", prof.Name, i, o)
			}
			cur.observe(pc, &o)
		}
		if stores == 0 {
			t.Fatalf("%s: no stores in a %d-instruction prefix", prof.Name, prefix)
		}
		if !packed.Mem.(*isa.Memory).Equal(ref.Mem.(*isa.Memory)) {
			t.Fatalf("%s: packed apply memory differs from ApplyRef after %d stores", prof.Name, stores)
		}
		if cur.diverged {
			t.Fatalf("%s: fault-free replay diverged", prof.Name)
		}
	}
}

// TestGoldenCursorCheckpointRewind drives a checkpointing machine's
// take → diverge → rollback → take lifecycle through a cursor. Each rollback
// must restore the (position, expected PC, verdict) recorded at the last
// take, so the re-executed commits are compared against the same entries
// again; this is the bookkeeping the lockstep reference model did by
// snapshotting its architectural state.
func TestGoldenCursorCheckpointRewind(t *testing.T) {
	p := testProgram(t)
	s := NewGoldenStream(p)
	pcs, outs := liveOutcomes(p, 101)
	feed := func(c *goldenCursor, from, to int) {
		for i := from; i < to; i++ {
			c.observe(pcs[i], &outs[i])
		}
	}
	cur := s.cursor(0)
	feed(cur, 0, 40)
	cur.checkpoint(true) // take at commit 40
	if cur.idx != 40 || cur.pc != pcs[40] || cur.diverged {
		t.Fatalf("after take: idx %d pc %d diverged %v, want 40 %d false", cur.idx, cur.pc, cur.diverged, pcs[40])
	}

	// Diverge past the checkpoint: a corrupted commit 60 sticks.
	feed(cur, 40, 60)
	bad := outs[60]
	bad.NextPC ^= 1
	cur.observe(pcs[60], &bad)
	feed(cur, 61, 70)
	if !cur.diverged || cur.idx != 61 {
		t.Fatalf("after divergence: idx %d diverged %v, want 61 true", cur.idx, cur.diverged)
	}

	// Roll back: the machine re-executes from commit 40, cleanly this time.
	cur.checkpoint(false)
	if cur.idx != 40 || cur.pc != pcs[40] || cur.diverged {
		t.Fatalf("after rollback: idx %d pc %d diverged %v, want 40 %d false", cur.idx, cur.pc, cur.diverged, pcs[40])
	}
	feed(cur, 40, 100)
	cur.checkpoint(true) // take at commit 100
	if cur.idx != 100 || cur.pc != pcs[100] || cur.diverged {
		t.Fatalf("after second take: idx %d pc %d diverged %v, want 100 %d false", cur.idx, cur.pc, cur.diverged, pcs[100])
	}

	// A take recorded after divergence keeps the divergence across rollback.
	cur.observe(pcs[100]+1, &outs[100])
	cur.checkpoint(true)
	cur.checkpoint(false)
	if !cur.diverged || cur.idx != 100 {
		t.Fatalf("diverged take: idx %d diverged %v, want 100 true", cur.idx, cur.diverged)
	}
}

// TestNearestSnapshotIdx pins the strictly-before selection rule: the chosen
// snapshot must predate the injected decode event (equality is too late —
// that decode already happened in it), or the run starts cold.
func TestNearestSnapshotIdx(t *testing.T) {
	rc := &replayContext{snaps: []*pipeline.Snapshot{
		{DecodeEvents: 100},
		{DecodeEvents: 200},
		{DecodeEvents: 300},
	}}
	cases := []struct {
		decodeIndex int64
		want        int
	}{
		{50, -1},  // before every snapshot: cold
		{100, -1}, // equality is too late
		{101, 0},  // just past the first
		{200, 0},  // equality with the second: first still applies
		{250, 1},  //
		{300, 1},  // equality with the last
		{9999, 2}, // far past the last
	}
	for _, c := range cases {
		var want *pipeline.Snapshot
		if c.want >= 0 {
			want = rc.snaps[c.want]
		}
		if got := rc.before(byDecode, c.decodeIndex); got != want {
			t.Errorf("before(%d) = %+v, want snapshot %d", c.decodeIndex, got, c.want)
		}
	}
	if got := (&replayContext{}).before(byDecode, 10); got != nil {
		t.Fatalf("no snapshots: got %+v, want cold", got)
	}
}
