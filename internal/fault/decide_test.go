package fault

import (
	"fmt"
	"reflect"
	"testing"

	"itr/internal/asm"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
)

// TestDecidedClassificationMatchesExact is the decided-outcome engine's
// correctness bar: for fixed seeds, every injection's Detail — its
// classification and every observe- and verify-run fact — must be identical
// between the fast path and the exact run-to-completion path, across all
// three detector backends, several worker widths, and runs started both from
// pilot snapshots and from cycle 0.
func TestDecidedClassificationMatchesExact(t *testing.T) {
	t.Parallel()
	p := testProgram(t)
	for _, backend := range []string{"itr", "reptfd", "dme"} {
		for _, workers := range []int{1, 4} {
			for _, seed := range []uint64{0x17b, 0xdead} {
				for _, interval := range []int64{0, -1} {
					name := fmt.Sprintf("%s/w%d/seed %#x/interval %d", backend, workers, seed, interval)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						base := DefaultCampaignConfig()
						base.Faults = 40
						base.Seed = seed
						base.Workers = workers
						base.Experiment = quickConfig()
						base.Experiment.Pipeline.Detector = backend
						base.Experiment.SnapshotInterval = interval

						exact := base
						exact.Experiment.Exact = true
						fast := base

						eres, err := RunCampaign("exact", p, exact)
						if err != nil {
							t.Fatal(err)
						}
						fres, err := RunCampaign("fast", p, fast)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(fres.Counts, eres.Counts) {
							t.Errorf("%s: counts %v != exact %v", name, fres.Counts, eres.Counts)
						}
						if fres.RecoveryAttempted != eres.RecoveryAttempted ||
							fres.RecoveryConfirmed != eres.RecoveryConfirmed {
							t.Errorf("%s: recovery %d/%d != exact %d/%d", name,
								fres.RecoveryConfirmed, fres.RecoveryAttempted,
								eres.RecoveryConfirmed, eres.RecoveryAttempted)
						}
						for i := range eres.Details {
							if fres.Details[i] != eres.Details[i] {
								t.Errorf("%s: injection %d\n fast  %+v\n exact %+v",
									name, i, fres.Details[i], eres.Details[i])
							}
						}
						if eres.Budget.CyclesSaved != 0 {
							t.Errorf("%s: exact path reported %d cycles saved", name, eres.Budget.CyclesSaved)
						}
					})
				}
			}
		}
	}
}

// TestDecidedBudgetAccounting checks that the fast path actually decides
// runs early on a workload dominated by quickly-settling faults, and that
// the budget's class breakdown is consistent with its totals.
func TestDecidedBudgetAccounting(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultCampaignConfig()
	cfg.Faults = 40
	cfg.Experiment = quickConfig()
	var prog Progress
	cfg.Progress = &prog
	res, err := RunCampaign("budget", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Budget
	if b.DecidedEarly == 0 {
		t.Error("no injection decided early; the fast path did not engage")
	}
	if b.CyclesSaved <= 0 || b.CyclesSimulated <= 0 {
		t.Errorf("degenerate budget: simulated %d, saved %d", b.CyclesSimulated, b.CyclesSaved)
	}
	var sim, saved int64
	for _, cb := range b.ByClass {
		sim += cb.Simulated
		saved += cb.Saved
	}
	if sim != b.CyclesSimulated || saved != b.CyclesSaved {
		t.Errorf("class breakdown (%d, %d) disagrees with totals (%d, %d)",
			sim, saved, b.CyclesSimulated, b.CyclesSaved)
	}
	if prog.CyclesSimulated.Load() != b.CyclesSimulated || prog.CyclesSaved.Load() != b.CyclesSaved {
		t.Errorf("progress counters (%d, %d) disagree with budget (%d, %d)",
			prog.CyclesSimulated.Load(), prog.CyclesSaved.Load(),
			b.CyclesSimulated, b.CyclesSaved)
	}
}

func TestBudgetMerge(t *testing.T) {
	b := Budget{CyclesSimulated: 10, CyclesSaved: 20, DecidedEarly: 1, VerifyForked: 2, ProofFallbacks: 3,
		ByClass: map[Category]ClassBudget{ITRMask: {Simulated: 4, Saved: 5}}}
	var sum Budget
	sum.Merge(b)
	sum.Merge(b)
	want := Budget{CyclesSimulated: 20, CyclesSaved: 40, DecidedEarly: 2, VerifyForked: 4, ProofFallbacks: 6,
		ByClass: map[Category]ClassBudget{ITRMask: {Simulated: 8, Saved: 10}}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("merged budget %+v, want %+v", sum, want)
	}
}

// TestConvergenceProof exercises the cursor's convergence proof directly: a
// fault-free machine must prove convergence at any commit boundary, and any
// single divergence in registers, PC, or memory — including on a page
// neither the machine nor the shadow touched — must defeat the proof.
func TestConvergenceProof(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	cpu, err := pipeline.New(p, cfg.pipelineConfig(core.ModeObserve))
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(2000)
	snap := cpu.Snapshot()
	cur := (&arena{prog: p}).attach(cpu, snap)
	cpu.Run(2000)
	if cpu.CommittedInsts() <= snap.Committed {
		t.Fatal("machine made no progress past the snapshot")
	}
	if !cur.converged(cpu) {
		t.Fatal("fault-free machine failed its own convergence proof")
	}

	arch := cpu.Committed()
	arch.R[5] ^= 1
	if cur.converged(cpu) {
		t.Error("proof survived a corrupted integer register")
	}
	arch.R[5] ^= 1

	pc := arch.PC
	arch.PC ^= 4
	if cur.converged(cpu) {
		t.Error("proof survived a corrupted PC")
	}
	arch.PC = pc

	// A store to a page neither execution dirtied: the machine-side memory
	// gains a page the shadow lacks, which the one-sided page compare
	// must catch.
	mem, ok := arch.Mem.(*isa.Memory)
	if !ok {
		t.Fatal("committed state is not backed by isa.Memory")
	}
	const farAddr = 0x40_0000
	mem.Store(farAddr, 8, 0xbad)
	if cur.converged(cpu) {
		t.Error("proof survived a corrupted memory word")
	}
	mem.Store(farAddr, 8, 0)
	if !cur.converged(cpu) {
		t.Error("proof failed after corruption was reverted to zero")
	}
}

// TestMemoryEqual pins the generation-tag page diff underneath the
// convergence proof: snapshot-shared pages compare by pointer, diverged
// copies by content, and pages present on one side only compare against
// zeros (copy-on-write never materializes untouched pages).
func TestMemoryEqual(t *testing.T) {
	a := isa.NewMemory()
	a.Store(0x1000, 8, 7)
	a.Store(0x9000, 8, 9)

	b := isa.NewMemory()
	b.CopyFrom(a)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("copy-on-write clone not equal to source")
	}

	// Same content written independently: compares by data, not pointer.
	c := isa.NewMemory()
	c.Store(0x1000, 8, 7)
	c.Store(0x9000, 8, 9)
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("identical contents in distinct pages not equal")
	}

	// Divergent word.
	c.Store(0x9000, 8, 10)
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("divergent contents reported equal")
	}

	// One-sided page holding only zeros is equal to an absent page...
	d := isa.NewMemory()
	d.CopyFrom(a)
	d.Store(0x20_000, 8, 1)
	d.Store(0x20_000, 8, 0)
	if !a.Equal(d) || !d.Equal(a) {
		t.Fatal("all-zero one-sided page broke equality")
	}
	// ...and a nonzero one-sided page is not.
	d.Store(0x20_000, 8, 2)
	if a.Equal(d) || d.Equal(a) {
		t.Fatal("nonzero one-sided page reported equal")
	}
}

// multiPageSrc builds a ring of 24 nodes, one per 4 KiB data page (the
// 4104-byte stride also staggers their in-page offsets), then chases it
// forever, rewriting two words of every node it visits. Each loop iteration
// dirties a different page, so snapshots, the golden shadow, checkpoint
// rollback and the convergence proof all see multi-page copy-on-write diffs.
const multiPageSrc = `
        addi  r1, r0, 24         ; node count
        addi  r4, r0, 0x2000     ; ring base
        addi  r5, r0, 0          ; node index
        add   r6, r4, r0         ; cursor
init:   addi  r7, r6, 4104       ; next node, one page on
        sd    r7, 0(r6)          ; node.next
        sd    r5, 8(r6)          ; node.val
        add   r6, r7, r0
        addi  r5, r5, 1
        bne   r5, r1, init
        addi  r6, r6, -4104      ; last node closes the ring
        sd    r4, 0(r6)
        add   r6, r4, r0
        addi  r2, r0, 0
chase:  ld    r8, 8(r6)
        add   r2, r2, r8
        addi  r8, r8, 3
        sd    r8, 8(r6)
        xor   r9, r2, r8
        sd    r9, 16(r6)
        ld    r6, 0(r6)          ; pointer chase to the next page
        j     chase
        halt                     ; unreachable: the window ends the run
`

// TestMultiPageCampaignSound checks the decided-outcome engine, snapshot
// resume and the golden shadow where their soundness leans on memory, on a
// program whose working set spans 24 data pages. The shadow's checkpoint
// rollback rewinds a many-page diff. In a campaign, decided Details equal
// exact ones and snapshot-resumed Details equal cold ones, the snapshot
// series owns more than one page, and the sample holds both SDCs and masked
// faults.
func TestMultiPageCampaignSound(t *testing.T) {
	t.Parallel()
	p, err := asm.Assemble("multipage", multiPageSrc)
	if err != nil {
		t.Fatal(err)
	}

	// Take a checkpoint once the ring is built, chase it about twice round,
	// roll back: every node's value is the take's again, and re-executing
	// the same commits stays clean, since each one loads what an earlier
	// one stored.
	const take, end = 200, 600
	pcs, outs := liveOutcomes(p, end)
	cur := zeroCursor(t, p)
	feed := func(from, to int) {
		for i := from; i < to; i++ {
			cur.observe(pcs[i], &outs[i])
		}
	}
	vals := func() (v [24]uint64) {
		for k := range v {
			v[k] = cur.mem.Load(0x2000+uint64(k)*4104+8, 8)
		}
		return v
	}
	feed(0, take)
	cur.checkpoint(true)
	taken := vals()
	feed(take, end)
	if n := cur.mem.DirtyPages(); n < 16 {
		t.Fatalf("shadow dirtied %d pages past the take, want >= 16", n)
	}
	cur.checkpoint(false)
	if got := vals(); got != taken || cur.st.PC != pcs[take] || cur.diverged {
		t.Fatalf("after rollback: node values %v pc %d diverged %v, want %v %d false", got, cur.st.PC, cur.diverged, taken, pcs[take])
	}
	feed(take, end)
	if cur.diverged {
		t.Fatal("re-execution after a multi-page rollback diverged")
	}

	run := func(exact bool, interval int64) CampaignResult {
		t.Helper()
		cfg := DefaultCampaignConfig()
		cfg.Faults = 60
		cfg.Workers = 2
		cfg.Experiment = quickConfig()
		cfg.Experiment.Exact = exact
		cfg.Experiment.SnapshotInterval = interval
		res, err := RunCampaign("multipage", p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	decided := run(false, 0)
	for name, other := range map[string]CampaignResult{"exact": run(true, 0), "cold": run(false, -1)} {
		for i := range decided.Details {
			if decided.Details[i] != other.Details[i] {
				t.Fatalf("injection %d: decided from snapshots %+v\n%s %+v", i, decided.Details[i], name, other.Details[i])
			}
		}
	}
	if decided.SnapshotOwnedPages <= 1 {
		t.Fatalf("snapshot series owns %d pages, want a multi-page footprint", decided.SnapshotOwnedPages)
	}
	if decided.Budget.DecidedEarly == 0 {
		t.Fatal("no run was decided early, so no convergence proof passed")
	}
	var sdc, masked int
	for _, d := range decided.Details {
		switch {
		case d.NaturalSDC:
			sdc++
		case !d.Deadlock:
			masked++
		}
	}
	if sdc == 0 || masked == 0 {
		t.Fatalf("%d SDC and %d masked faults, want both: %v", sdc, masked, decided.Counts)
	}
}
