package pipeline

import (
	"sync"
	"testing"

	"itr/internal/cache"
	"itr/internal/isa"
	"itr/internal/program"
)

// missFaultProgram is structured so a fault can land on a trace's FIRST
// dynamic instance (an ITR cache miss): the faulty signature is installed,
// the next instance mismatches, the retry mismatches again, and without
// checkpointing the machine check aborts the program.
func missFaultProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("missfault")
	b.OpImm(isa.OpAddi, 1, 0, 400) // outer count
	b.OpImm(isa.OpAddi, 4, 0, 0x1000)
	b.Label("outer")
	// Warm phase: a tight loop that gets every line checked.
	b.OpImm(isa.OpAddi, 2, 0, 8)
	b.Label("warm")
	b.OpImm(isa.OpAddi, 3, 3, 1)
	b.Store(isa.OpSd, 3, 4, 0)
	b.OpImm(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "warm")
	// Late phase: entered only after many outer iterations, so its first
	// execution happens long after checkpoints exist.
	b.OpImm(isa.OpAddi, 5, 0, 200)
	b.Branch(isa.OpBlt, 1, 5, "late") // taken once r1 < 200
	b.Jump("skip_late")
	b.Label("late")
	b.Op(isa.OpAdd, 6, 6, 3)
	b.Op(isa.OpXor, 7, 7, 6)
	b.Store(isa.OpSd, 7, 4, 16)
	b.OpImm(isa.OpAddi, 8, 8, 3)
	b.Branch(isa.OpBeq, 0, 0, "skip_late") // never... taken: 0==0 always
	b.Label("skip_late")
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "outer")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// injectOnFirstLateInstance flips an imm bit on the first dynamic execution
// of the "late" block's add instruction — a trace instance that misses in
// the ITR cache, installing a faulty signature.
func injectOnFirstLateInstance(p *program.Program) (FaultHook, *bool) {
	// Find the late add: first OpAdd in the image.
	var target uint64
	for pc, inst := range p.Insts {
		if inst.Op == isa.OpAdd {
			target = uint64(pc)
			break
		}
	}
	injected := new(bool)
	return func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		// Gate on the correct path: wrong-path instances are squashed and
		// would consume the one-shot injection without effect.
		if !*injected && pc == target && !wrongPath {
			*injected = true
			return d.FlipBit(45) // imm field
		}
		return d
	}, injected
}

func TestMachineCheckWithoutCheckpoint(t *testing.T) {
	p := missFaultProgram(t)
	cfg := DefaultConfig()
	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook, injected := injectOnFirstLateInstance(p)
	cpu.SetFaultHook(hook)
	res := cpu.Run(2_000_000)
	if !*injected {
		t.Fatal("fault not injected")
	}
	if res.Termination != TermMachineCheck {
		t.Fatalf("termination = %v, want machine check (faulty signature installed on miss)", res.Termination)
	}
	if cpu.Checker().Stats().MachineChecks != 1 {
		t.Fatalf("checker stats: %+v", cpu.Checker().Stats())
	}
}

func TestCheckpointConvertsMachineCheckToRollback(t *testing.T) {
	p := missFaultProgram(t)
	cfg := DefaultConfig()
	cfg.CheckpointEnabled = true
	cfg.CheckpointIntervalCycles = 512
	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook, injected := injectOnFirstLateInstance(p)
	cpu.SetFaultHook(hook)

	takes, rollbacks := 0, 0
	cpu.SetCheckpointObserver(func(taken bool) {
		if taken {
			takes++
		} else {
			rollbacks++
		}
	})

	res := cpu.Run(4_000_000)
	if !*injected {
		t.Fatal("fault not injected")
	}
	if res.Termination != TermHalt {
		t.Fatalf("termination = %v, want halt (recovered via checkpoint)", res.Termination)
	}
	if res.CheckpointRollbacks != 1 || rollbacks != 1 {
		t.Fatalf("rollbacks = %d (observer %d), want 1", res.CheckpointRollbacks, rollbacks)
	}
	if takes == 0 || res.CheckpointsTaken != int64(takes) {
		t.Fatalf("checkpoints taken = %d (observer %d), want equal and non-zero", res.CheckpointsTaken, takes)
	}

	// The replayed execution must converge to the same final architectural
	// state as a fault-free run.
	ref, err := New(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.Run(4_000_000)
	if refRes.Termination != TermHalt {
		t.Fatalf("reference run: %v", refRes.Termination)
	}
	got, want := cpu.Committed(), ref.Committed()
	if got.R != want.R || got.F != want.F {
		t.Fatal("final register state differs from fault-free run after checkpoint recovery")
	}
	for _, addr := range []uint64{0x1000, 0x1010} {
		if got.Mem.Load(addr, 8) != want.Mem.Load(addr, 8) {
			t.Fatalf("memory at %#x differs after checkpoint recovery", addr)
		}
	}
}

// TestRollbackWithoutCheckpoint: a machine check before the first take has
// nothing to roll back to, so it still aborts the program.
func TestRollbackWithoutCheckpoint(t *testing.T) {
	p := missFaultProgram(t)
	cfg := DefaultConfig()
	cfg.CheckpointEnabled = true
	cfg.CheckpointIntervalCycles = 1 << 30
	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook, injected := injectOnFirstLateInstance(p)
	cpu.SetFaultHook(hook)
	res := cpu.Run(2_000_000)
	if !*injected {
		t.Fatal("fault not injected")
	}
	if res.Termination != TermMachineCheck || res.CheckpointsTaken != 0 || res.CheckpointRollbacks != 0 {
		t.Fatalf("termination = %v after %d takes and %d rollbacks, want a machine check and none",
			res.Termination, res.CheckpointsTaken, res.CheckpointRollbacks)
	}
}

// TestSnapshotCarriesCheckpoint resumes a snapshot taken between a
// checkpoint take and the fault, in two machines at once, and has each roll
// back to the checkpoint the snapshot carried. Both must end exactly where a
// straight run does.
func TestSnapshotCarriesCheckpoint(t *testing.T) {
	p := missFaultProgram(t)
	cfg := DefaultConfig()
	cfg.CheckpointEnabled = true
	cfg.CheckpointIntervalCycles = 512
	const budget = 4_000_000

	straight, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook, _ := injectOnFirstLateInstance(p)
	straight.SetFaultHook(hook)
	want := straight.Run(budget)
	if want.Termination != TermHalt || want.CheckpointRollbacks != 1 {
		t.Fatalf("straight run: %v with %d rollbacks, want halt after 1", want.Termination, want.CheckpointRollbacks)
	}

	// The fault lands at cycle ~3500 and is rolled back within ~50 cycles;
	// the take at cycle 3072 is the last before it.
	pilot, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pilot.Run(3200)
	snap := pilot.Snapshot()
	if snap.m.ckptCommit == 0 {
		t.Fatal("snapshot carries no checkpoint")
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
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
			hook, injected := injectOnFirstLateInstance(p)
			cpu.SetFaultHook(hook)
			takes, rolledBack := 0, false
			cpu.SetCheckpointObserver(func(taken bool) {
				if taken && !rolledBack {
					takes++
				}
				rolledBack = rolledBack || !taken
			})
			got := cpu.Run(budget)
			switch {
			case !*injected:
				t.Errorf("worker %d: fault not injected after the snapshot", w)
			case takes != 0:
				t.Errorf("worker %d: %d takes before the rollback, want it to use the snapshot's checkpoint", w, takes)
			case got != want:
				t.Errorf("worker %d: result %+v, straight run %+v", w, got, want)
			}
			assertSameCommitted(t, cpu, straight)
		}(w)
	}
	wg.Wait()
}

func TestCheckpointRequiresITR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ITREnabled = false
	cfg.CheckpointEnabled = true
	if _, err := New(missFaultProgram(t), cfg); err == nil {
		t.Fatal("checkpointing without ITR accepted")
	}
}

func TestCheckpointFaultFreeOverheadIsBookkeepingOnly(t *testing.T) {
	p := missFaultProgram(t)
	cfg := DefaultConfig()
	cfg.CheckpointEnabled = true
	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(2_000_000)
	if res.Termination != TermHalt {
		t.Fatalf("termination = %v", res.Termination)
	}
	if res.CheckpointRollbacks != 0 {
		t.Fatal("fault-free run rolled back")
	}
	if res.CheckpointsTaken == 0 {
		t.Fatal("no checkpoints taken on a fault-free run")
	}
	// Takes cost no cycles and change no state: the run matches one without
	// the extension.
	ref, err := New(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.Run(2_000_000)
	if res.Cycles != refRes.Cycles || res.Committed != refRes.Committed {
		t.Fatalf("checkpointing run %d cycles / %d committed, plain run %d / %d",
			res.Cycles, res.Committed, refRes.Cycles, refRes.Committed)
	}
	assertSameCommitted(t, cpu, ref)
}

// assertSameCommitted reports an error unless two machines hold identical
// committed registers, PC and memory. It only reads want, so concurrent
// callers may share it.
func assertSameCommitted(t *testing.T, got, want *CPU) {
	t.Helper()
	g, w := got.Committed(), want.Committed()
	if g.R != w.R || g.F != w.F || g.PC != w.PC {
		t.Error("committed registers or PC differ")
	}
	if !got.mem.Equal(want.mem) {
		t.Error("committed memory differs")
	}
}

// TestCheckpointTakenEveryInterval pins the one take rule: a checkpoint is
// taken at every interval boundary, even while run-once code leaves unchecked
// ITR lines resident. Whether a rollback to it is sound is decided later, by
// the detector's SignatureStamp.
func TestCheckpointTakenEveryInterval(t *testing.T) {
	p := missFaultProgram(t)
	cfg := DefaultConfig()
	cfg.CheckpointEnabled = true
	cfg.CheckpointIntervalCycles = 256
	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(500_000)
	if res.Termination != TermHalt {
		t.Fatalf("termination = %v", res.Termination)
	}
	unchecked := 0
	cpu.Checker().Cache().Visit(func(ln *cache.Line) {
		if !ln.Checked {
			unchecked++
		}
	})
	if unchecked == 0 {
		t.Fatal("no unchecked ITR line left: the run does not exercise run-once code")
	}
	if want := res.Cycles / 256; res.CheckpointsTaken != want {
		t.Fatalf("%d checkpoints over %d cycles, want %d", res.CheckpointsTaken, res.Cycles, want)
	}
}
