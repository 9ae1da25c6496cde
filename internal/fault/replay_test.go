package fault

import (
	"fmt"
	"reflect"
	"testing"

	"itr/internal/core"
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

// liveOutcomes executes p functionally, independently of any cursor, for n
// steps, returning each step's PC and outcome.
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

// zeroCursor returns a cursor whose shadow starts at p's cycle-0 machine
// image, as a cold run's does.
func zeroCursor(t *testing.T, p *program.Program) *goldenCursor {
	t.Helper()
	cpu, err := pipeline.New(p, quickConfig().pipelineConfig(core.ModeObserve))
	if err != nil {
		t.Fatal(err)
	}
	return (&arena{prog: p}).attach(cpu, cpu.Snapshot())
}

// TestGoldenShadowTracksPipeline: on every coverage benchmark, a cursor
// attached at a mid-run snapshot follows the fault-free machine's commits
// without diverging and proves convergence with it afterwards.
func TestGoldenShadowTracksPipeline(t *testing.T) {
	for _, prof := range workload.CoverageSuite() {
		prog, err := workload.CachedProgram(prof)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := pipeline.New(prog, quickConfig().pipelineConfig(core.ModeObserve))
		if err != nil {
			t.Fatal(err)
		}
		cpu.Run(1000)
		snap := cpu.Snapshot()
		cur := (&arena{prog: prog}).attach(cpu, snap)
		cpu.Run(4000)
		if cpu.CommittedInsts() <= snap.Committed {
			t.Fatalf("%s: no commits past the snapshot", prof.Name)
		}
		if cur.diverged || !cur.converged(cpu) {
			t.Fatalf("%s: fault-free machine diverged %v from its shadow (converged %v)", prof.Name, cur.diverged, cur.converged(cpu))
		}
	}
}

// TestGoldenCursorCheckpointRewind drives a checkpointing machine's
// take → diverge → rollback → take lifecycle through a cursor. Each rollback
// must restore the shadow's registers, PC and memory and the verdict
// recorded at the last take, so the re-executed commits are compared against
// the same shadow state again.
func TestGoldenCursorCheckpointRewind(t *testing.T) {
	p := testProgram(t)
	pcs, outs := liveOutcomes(p, 101)
	feed := func(c *goldenCursor, from, to int) {
		for i := from; i < to; i++ {
			c.observe(pcs[i], &outs[i])
		}
	}
	// The program's store hits one word on every inner iteration, so the
	// shadow has materialized its page before the take and stores to it
	// again after.
	var addr uint64
	for _, o := range outs[:40] {
		if o.MemWrite {
			addr = o.MemAddr
		}
	}
	type state struct {
		r, f     [isa.NumRegs]uint64
		pc, word uint64
		diverged bool
	}
	cur := zeroCursor(t, p)
	at := func() state { return state{cur.st.R, cur.st.F, cur.st.PC, cur.mem.Load(addr, 8), cur.diverged} }
	feed(cur, 0, 40)
	cur.checkpoint(true) // take at commit 40
	taken := at()
	if taken.pc != pcs[40] || taken.diverged || taken.word == 0 {
		t.Fatalf("after take: pc %d diverged %v word %#x, want %d false nonzero", taken.pc, taken.diverged, taken.word, pcs[40])
	}

	// Past the take the shadow stores to the page the checkpoint shares,
	// then a corrupted commit 60 diverges it, stickily.
	feed(cur, 40, 60)
	if cur.mem.Load(addr, 8) == taken.word {
		t.Fatal("no store to the checkpointed word after the take")
	}
	if got := cur.ck.Mem.Load(addr, 8); got != taken.word {
		t.Fatalf("checkpoint memory changed under a later store: %#x, want %#x", got, taken.word)
	}
	bad := outs[60]
	bad.NextPC ^= 1
	cur.observe(pcs[60], &bad)
	feed(cur, 61, 70)
	if !cur.diverged {
		t.Fatal("corrupted commit not flagged")
	}

	// Roll back: the machine re-executes from commit 40, cleanly this time.
	cur.checkpoint(false)
	if got := at(); got != taken {
		t.Fatalf("after rollback: %+v, want %+v", got, taken)
	}
	feed(cur, 40, 100)
	cur.checkpoint(true) // take at commit 100
	if cur.st.PC != pcs[100] || cur.diverged {
		t.Fatalf("after second take: pc %d diverged %v, want %d false", cur.st.PC, cur.diverged, pcs[100])
	}

	// A take recorded after divergence keeps the divergence across rollback.
	cur.observe(pcs[100]+1, &outs[100])
	cur.checkpoint(true)
	cur.checkpoint(false)
	if !cur.diverged {
		t.Fatal("diverged take lost its verdict across rollback")
	}
}

// TestGoldenCursorEffectMismatchSticky: the clean-word kernel applies the
// shadow's outcome before the cursor compares, so a commit whose
// architectural effect mismatches leaves the shadow one instruction past it.
// That state must never count. The verdict stays diverged, a checkpoint
// taken after the mismatch records the verdict with the state, and a
// rollback to it restores both, so converged stays false throughout.
func TestGoldenCursorEffectMismatchSticky(t *testing.T) {
	p := testProgram(t)
	cpu, err := pipeline.New(p, quickConfig().pipelineConfig(core.ModeObserve))
	if err != nil {
		t.Fatal(err)
	}
	cur := (&arena{prog: p}).attach(cpu, cpu.Snapshot())
	cpu.Run(2000)
	if cur.diverged || !cur.converged(cpu) {
		t.Fatalf("fault-free run: diverged %v converged %v", cur.diverged, cur.converged(cpu))
	}

	// The machine's next commit, with a corrupted next PC.
	pc := cur.st.PC
	next := &isa.ArchState{R: cur.st.R, F: cur.st.F, PC: pc, Mem: cur.mem.Clone()}
	bad := next.Step(p.Fetch(pc))
	bad.NextPC++
	cur.observe(pc, &bad)
	switch {
	case !cur.diverged:
		t.Fatal("effect mismatch not flagged")
	case cur.st.PC != next.PC:
		t.Fatalf("shadow at pc %d after the mismatch, want %d: the kernel applies before the compare", cur.st.PC, next.PC)
	case cur.converged(cpu):
		t.Fatal("diverged shadow proved convergence")
	}

	cur.checkpoint(true)
	if !cur.ckDiverged {
		t.Fatal("take after the mismatch did not record the divergence")
	}
	cpu.Run(500) // commits the cursor ignores
	cur.checkpoint(false)
	if !cur.diverged || cur.converged(cpu) {
		t.Fatalf("after rollback: diverged %v converged %v, want true false", cur.diverged, cur.converged(cpu))
	}
	if cur.st.PC != next.PC {
		t.Fatalf("rollback restored pc %d, want the take's %d", cur.st.PC, next.PC)
	}
}

// TestNearestSnapshotIdx pins the strictly-before selection rule: the chosen
// snapshot must predate the injected decode event (equality is too late —
// that decode already happened in it), or the run starts cold.
func TestNearestSnapshotIdx(t *testing.T) {
	snaps := snapSeries{
		{DecodeEvents: 100},
		{DecodeEvents: 200},
		{DecodeEvents: 300},
	}
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
			want = snaps[c.want]
		}
		if got := snaps.before(byDecode, c.decodeIndex); got != want {
			t.Errorf("before(%d) = %+v, want snapshot %d", c.decodeIndex, got, c.want)
		}
	}
	if got := snapSeries(nil).before(byDecode, 10); got != nil {
		t.Fatalf("no snapshots: got %+v, want cold", got)
	}
}

// TestPilotCutoffMatchesPrunedCaptureAll: the pilot's capture cutoff only
// skips snapshots no injection resumes from. For every coverage benchmark
// in each redundancy mode, a campaign plan samples the same injections and
// retains the same snapshots (compared by decode events) as a pilot that
// captures through the whole window before pruning, while capturing fewer.
func TestPilotCutoffMatchesPrunedCaptureAll(t *testing.T) {
	modes := []pipeline.RedundancyMode{pipeline.RedundancyNone, pipeline.RedundancyDualDecode, pipeline.RedundancyTimeRedundant}
	for _, mode := range modes {
		captured, all := int64(0), 0
		for _, prof := range workload.CoverageSuite() {
			prog, err := workload.CachedProgram(prof)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultCampaignConfig()
			cfg.Experiment = quickConfig()
			cfg.Experiment.Pipeline.Redundancy = mode
			probe := &pipeline.Probe{}
			cfg.Experiment.Pipeline.Probe = probe
			got, err := plan(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			captured += probe.SnapshotCaptures.Load()

			cfg.Experiment.Pipeline.Probe = nil
			ref, err := pipeline.New(prog, cfg.Experiment.pipelineConfig(core.ModeObserve))
			if err != nil {
				t.Fatal(err)
			}
			window, interval := cfg.Experiment.WindowCycles, cfg.Experiment.EffectiveSnapshotInterval()
			var snaps snapSeries
			for next := interval; ; next = ref.DecodeEvents() + interval {
				res := ref.RunUntilDecode(window-ref.CycleCount(), next)
				if res.Termination != pipeline.TermBudget || ref.CycleCount() >= window {
					break
				}
				snaps = append(snaps, ref.Snapshot())
			}
			all += len(snaps)
			injections, err := sample(ref.DecodeEvents(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.injections, injections) {
				t.Fatalf("%v %s: the plan sampled different injections", mode, prof.Name)
			}
			points := make([]int64, len(injections))
			for i, inj := range injections {
				points[i] = inj.DecodeIndex
			}
			key := func(s snapSeries) (k []int64) {
				for _, snap := range s {
					k = append(k, snap.DecodeEvents)
				}
				return k
			}
			if g, w := key(got.snaps), key(prune(snaps, points)); !reflect.DeepEqual(g, w) {
				t.Fatalf("%v %s: retained snapshots at decode events %v, capture-all then prune %v", mode, prof.Name, g, w)
			}
		}
		if captured >= int64(all) {
			t.Errorf("%v: the pilots captured %d snapshots, capturing all takes %d", mode, captured, all)
		}
		t.Logf("%v: %d captures, %d without the cutoff", mode, captured, all)
	}
}
