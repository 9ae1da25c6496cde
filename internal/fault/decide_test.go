package fault

import (
	"fmt"
	"reflect"
	"testing"

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
	p := testProgram(t)
	for _, backend := range []string{"itr", "reptfd", "dme"} {
		for _, workers := range []int{1, 4} {
			for _, seed := range []uint64{0x17b, 0xdead} {
				for _, interval := range []int64{0, -1} {
					name := fmt.Sprintf("%s/w%d/seed %#x/interval %d", backend, workers, seed, interval)
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

// TestConvergenceProof exercises convergedWithGolden directly: a fault-free
// machine must prove convergence at any commit boundary, and any single
// divergence in registers, PC, or memory — including on a page the golden
// fork never touched — must defeat the proof.
func TestConvergenceProof(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	cpu, err := pipeline.New(p, cfg.pipelineConfig(core.ModeObserve))
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(2000)
	snap := cpu.Snapshot()
	stream := NewGoldenStream(p)
	cpu.Run(2000)
	if cpu.CommittedInsts() <= snap.Committed {
		t.Fatal("machine made no progress past the snapshot")
	}
	if !convergedWithGolden(cpu, stream, snap) {
		t.Fatal("fault-free machine failed its own convergence proof")
	}

	arch := cpu.Committed()
	arch.R[5] ^= 1
	if convergedWithGolden(cpu, stream, snap) {
		t.Error("proof survived a corrupted integer register")
	}
	arch.R[5] ^= 1

	pc := arch.PC
	arch.PC ^= 4
	if convergedWithGolden(cpu, stream, snap) {
		t.Error("proof survived a corrupted PC")
	}
	arch.PC = pc

	// A store to a page neither execution dirtied: the machine-side memory
	// gains a page the golden fork lacks, which the one-sided page compare
	// must catch.
	mem, ok := arch.Mem.(*isa.Memory)
	if !ok {
		t.Fatal("committed state is not backed by isa.Memory")
	}
	const farAddr = 0x40_0000
	mem.Store(farAddr, 8, 0xbad)
	if convergedWithGolden(cpu, stream, snap) {
		t.Error("proof survived a corrupted memory word")
	}
	mem.Store(farAddr, 8, 0)
	if !convergedWithGolden(cpu, stream, snap) {
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
