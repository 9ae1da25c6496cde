package pipeline

import (
	"testing"

	"itr/internal/cache"
	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/workload"
)

// renameFaultOnce corrupts the Src1 rename index of the first matching
// correct-path instruction after warmup.
func renameFaultOnce(after int64) (RenameFaultHook, *bool) {
	injected := new(bool)
	return func(i int64, ri RenameIndexes) RenameIndexes {
		if !*injected && i > after && ri.NSrc >= 1 && ri.Src1 != 0 {
			*injected = true
			ri.Src1 ^= 0x1f // read a very different map entry
		}
		return ri
	}, injected
}

func TestRenameFaultInvisibleToFrontendITR(t *testing.T) {
	p := loopProgram(t, 20, 30)
	cfg := DefaultConfig() // main ITR only
	cpu, _ := New(p, cfg)
	hook, injected := renameFaultOnce(500)
	cpu.SetRenameFaultHook(hook)

	st := isa.NewArchState()
	st.PC = p.Entry
	diverged := false
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if diverged {
			return
		}
		if pc != st.PC {
			diverged = true
			return
		}
		want := st.Step(p.Fetch(pc))
		if !o.SameArchEffect(&want) {
			diverged = true
		}
	})
	res := cpu.Run(2_000_000)
	if !*injected {
		t.Fatal("rename fault not injected")
	}
	if !diverged {
		t.Skip("this injection happened to be masked; frontend-invisibility still holds")
	}
	// The SDC went completely unnoticed by the frontend signature.
	if cpu.Checker().Stats().Mismatches != 0 {
		t.Fatal("frontend ITR detected a pure rename fault — it should be blind to it")
	}
	if res.Termination != TermHalt && res.Termination != TermBudget {
		t.Fatalf("termination: %v", res.Termination)
	}
}

func TestRenameITRDetectsAndRecoversRenameFault(t *testing.T) {
	p := loopProgram(t, 20, 30)
	cfg := DefaultConfig()
	cfg.RenameITREnabled = true
	cpu, _ := New(p, cfg)
	hook, injected := renameFaultOnce(500)
	cpu.SetRenameFaultHook(hook)

	// Full lockstep: with the rename checker the fault must be detected
	// pre-commit and recovered, leaving the committed stream exact.
	st := isa.NewArchState()
	st.PC = p.Entry
	idx := 0
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if pc != st.PC {
			t.Fatalf("commit %d: pc %d, functional %d", idx, pc, st.PC)
		}
		want := st.Step(p.Fetch(pc))
		if !o.SameArchEffect(&want) {
			t.Fatalf("commit %d diverged at pc %d", idx, pc)
		}
		idx++
	})
	res := cpu.Run(2_000_000)
	if !*injected {
		t.Fatal("rename fault not injected")
	}
	if res.Termination != TermHalt {
		t.Fatalf("termination: %v", res.Termination)
	}
	rst := cpu.RenameChecker().Stats()
	if rst.Mismatches == 0 || rst.Retries == 0 || rst.Recoveries == 0 {
		t.Fatalf("rename checker missed the fault: %+v", rst)
	}
	// The frontend checker stays silent: the signals were never corrupted.
	if cpu.Checker().Stats().Mismatches != 0 {
		t.Fatalf("frontend checker reacted to a rename fault: %+v", cpu.Checker().Stats())
	}
}

func TestRenameITRFaultFreeIsSilent(t *testing.T) {
	p := loopProgram(t, 20, 30)
	cfg := DefaultConfig()
	cfg.RenameITREnabled = true
	cpu, _ := New(p, cfg)
	res := cpu.Run(2_000_000)
	if res.Termination != TermHalt {
		t.Fatalf("termination: %v", res.Termination)
	}
	rst := cpu.RenameChecker().Stats()
	if rst.Mismatches != 0 || rst.Retries != 0 {
		t.Fatalf("fault-free rename checker events: %+v", rst)
	}
	if rst.Hits == 0 {
		t.Fatal("rename signature cache never hit")
	}
}

func TestRenameITRLockstepOnBenchmark(t *testing.T) {
	p := loopProgram(t, 15, 25)
	cfg := DefaultConfig()
	cfg.RenameITREnabled = true
	cpu, _ := New(p, cfg)
	expectLockstepOn(t, cpu)
}

func TestRenameITRRequiresMainITR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ITREnabled = false
	cfg.RenameITREnabled = true
	if _, err := New(loopProgram(t, 2, 2), cfg); err == nil {
		t.Fatal("rename ITR without main ITR accepted")
	}
}

func TestRenameIndexesPackDistinguishes(t *testing.T) {
	a := RenameIndexes{Src1: 1, Src2: 2, Dst: 3, NSrc: 2, NDst: 1}
	variants := []RenameIndexes{
		{Src1: 2, Src2: 2, Dst: 3, NSrc: 2, NDst: 1},
		{Src1: 1, Src2: 3, Dst: 3, NSrc: 2, NDst: 1},
		{Src1: 1, Src2: 2, Dst: 4, NSrc: 2, NDst: 1},
		{Src1: 1, Src2: 2, Dst: 3, NSrc: 1, NDst: 1},
		{Src1: 1, Src2: 2, Dst: 3, NSrc: 2, NDst: 0},
		{Src1: 1, Src2: 2, Dst: 3, NSrc: 2, NDst: 1, FP: true},
	}
	for i, v := range variants {
		if v.pack() == a.pack() {
			t.Errorf("variant %d packs identically", i)
		}
	}
}

func TestApplyRenameIndexesOnlyTouchesRegisters(t *testing.T) {
	d := isa.Decode(isa.Instruction{Op: isa.OpAdd, Rd: 3, Rs1: 1, Rs2: 2})
	ri := renameIndexesOf(d)
	ri.Src1 = 9
	d2 := applyRenameIndexes(d, ri)
	if d2.Rsrc1 != 9 || d2.Rsrc2 != d.Rsrc2 || d2.Rdst != d.Rdst {
		t.Fatalf("apply: %+v", d2)
	}
	if d2.Opcode != d.Opcode || d2.Flags != d.Flags || d2.Imm != d.Imm {
		t.Fatal("apply touched non-register fields")
	}
	// Crucially, the original signal word (the frontend signature input)
	// differs from the executed one only in the register fields.
	if d.Pack() == d2.Pack() {
		t.Fatal("corrupted index should change the executed vector")
	}
}

// TestRenameTraceSigsMatchFaultFreeCache: every line a fault-free run leaves
// in the rename checker's cache holds RenameTraceSigs' signature for its
// start PC, on the loop nest and on a synthesized benchmark with wrong
// paths, jumps and cold code.
func TestRenameTraceSigsMatchFaultFreeCache(t *testing.T) {
	prof, err := workload.ByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*program.Program{loopProgram(t, 20, 30), bench} {
		cfg := DefaultConfig()
		cfg.RenameITREnabled = true
		cpu, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cpu.Run(60_000)
		sigs := RenameTraceSigs(p.DecodeTable())
		lines := 0
		cpu.RenameChecker().Cache().Visit(func(ln *cache.Line) {
			lines++
			if want := sigs[min(ln.Key, uint64(len(sigs)-1))]; ln.Value != want {
				t.Errorf("%s: line %#x holds %#x, static rename signature %#x", p.Name, ln.Key, ln.Value, want)
			}
		})
		if lines == 0 {
			t.Fatalf("%s: no rename signature resident", p.Name)
		}
	}
}
