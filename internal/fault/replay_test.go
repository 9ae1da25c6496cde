package fault

import (
	"fmt"
	"reflect"
	"testing"

	"itr/internal/isa"
	"itr/internal/pipeline"
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

// TestGoldenStreamMatchesLiveGolden: the precomputed stream is exactly a
// live fault-free execution, and a cursor over it flags divergence.
func TestGoldenStreamMatchesLiveGolden(t *testing.T) {
	p := testProgram(t)
	s := NewGoldenStream(p)

	// Every entry matches an independent step-by-step execution, and
	// replaying the entries through a cursor never diverges.
	live := isa.NewArchState()
	live.PC = p.Entry
	cur := &goldenCursor{s: s}
	view := s.chunk(0)
	for i, e := range view[:500] {
		pc := live.PC
		o := live.Step(p.Fetch(pc))
		if e.pc != pc || !o.SameArchEffect(&e.out) {
			t.Fatalf("entry %d: stream (pc %d, %+v), live (pc %d, %+v)", i, e.pc, e.out, pc, o)
		}
		cur.observe(e.pc, &e.out)
	}
	if cur.diverged {
		t.Fatal("fault-free replay diverged")
	}

	// A wrong PC diverges, stickily.
	cur2 := &goldenCursor{s: s}
	e := view[0]
	cur2.observe(e.pc+1, &e.out)
	cur2.observe(e.pc, &e.out)
	if !cur2.diverged {
		t.Fatal("PC mismatch not flagged")
	}

	// A corrupted outcome diverges the cursor mid-stream.
	cur3 := &goldenCursor{s: s, idx: 100}
	bad := view[100].out
	bad.NextPC ^= 1
	cur3.observe(view[100].pc, &bad)
	if !cur3.diverged {
		t.Fatal("outcome mismatch not flagged by seeked cursor")
	}
}

// TestGoldenCursorCheckpointRewind drives a checkpointing machine's
// take → diverge → rollback → take lifecycle through a cursor. Each rollback
// must restore the (position, verdict) pair recorded at the last take, so the
// re-executed commits are compared against the same entries again; this is
// the bookkeeping the lockstep reference model did by snapshotting its
// architectural state.
func TestGoldenCursorCheckpointRewind(t *testing.T) {
	p := testProgram(t)
	s := NewGoldenStream(p)
	view := s.chunk(0)
	feed := func(c *goldenCursor, from, to int) {
		for i := from; i < to; i++ {
			c.observe(view[i].pc, &view[i].out)
		}
	}
	cur := &goldenCursor{s: s}
	feed(cur, 0, 40)
	cur.checkpoint(true) // take at commit 40
	if cur.idx != 40 || cur.diverged {
		t.Fatalf("after take: idx %d diverged %v, want 40 false", cur.idx, cur.diverged)
	}

	// Diverge past the checkpoint: a corrupted commit 60 sticks.
	feed(cur, 40, 60)
	bad := view[60].out
	bad.NextPC ^= 1
	cur.observe(view[60].pc, &bad)
	feed(cur, 61, 70)
	if !cur.diverged || cur.idx != 61 {
		t.Fatalf("after divergence: idx %d diverged %v, want 61 true", cur.idx, cur.diverged)
	}

	// Roll back: the machine re-executes from commit 40, cleanly this time.
	cur.checkpoint(false)
	if cur.idx != 40 || cur.diverged {
		t.Fatalf("after rollback: idx %d diverged %v, want 40 false", cur.idx, cur.diverged)
	}
	feed(cur, 40, 100)
	cur.checkpoint(true) // take at commit 100
	if cur.idx != 100 || cur.diverged {
		t.Fatalf("after second take: idx %d diverged %v, want 100 false", cur.idx, cur.diverged)
	}

	// A take recorded after divergence keeps the divergence across rollback.
	cur.observe(view[100].pc+1, &view[100].out)
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
