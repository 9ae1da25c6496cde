package pipeline

import (
	"testing"

	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/workload"
)

// straightline builds a long run of independent instructions ending in halt,
// to exercise 16-instruction trace splits and ROB pressure.
func straightline(t *testing.T, n int) *program.Program {
	t.Helper()
	b := program.NewBuilder("straight")
	for i := 0; i < n; i++ {
		b.OpImm(isa.OpAddi, isa.RegID(1+i%20), 0, int16(i))
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStraightlineTraceSplitsCommitExactly(t *testing.T) {
	p := straightline(t, 200)
	res := expectLockstep(t, p, DefaultConfig(), 100_000)
	if res.SpcFired != 0 {
		t.Fatalf("spc fired on straightline code: %d", res.SpcFired)
	}
}

func TestLongDependencyChainStillCommits(t *testing.T) {
	// Serial multiply chain: issue is latency-bound, the ROB backs up,
	// commit still makes exact progress.
	b := program.NewBuilder("chain")
	b.OpImm(isa.OpAddi, 1, 0, 3)
	for i := 0; i < 100; i++ {
		b.Op(isa.OpMul, 1, 1, 1)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := expectLockstep(t, p, DefaultConfig(), 100_000)
	// Latency-bound: IPC must be well below width.
	if res.IPC() > 1.0 {
		t.Fatalf("dependency chain IPC %.2f implausibly high", res.IPC())
	}
}

func TestTinyROBStillCorrect(t *testing.T) {
	p := loopProgram(t, 8, 12)
	cfg := DefaultConfig()
	cfg.ROBSize = 16
	cfg.IssueWindow = 8
	cfg.FetchQueue = 4
	expectLockstep(t, p, cfg, 2_000_000)
}

func TestNarrowMachineStillCorrect(t *testing.T) {
	p := loopProgram(t, 8, 12)
	cfg := DefaultConfig()
	cfg.FetchWidth = 1
	cfg.IssueWidth = 1
	cfg.CommitWidth = 1
	res := expectLockstep(t, p, cfg, 5_000_000)
	if res.IPC() > 1.0 {
		t.Fatalf("single-issue IPC %.2f > 1", res.IPC())
	}
}

func TestWatchdogDoesNotFireOnSlowButLiveCode(t *testing.T) {
	b := program.NewBuilder("slow")
	b.OpImm(isa.OpAddi, 1, 0, 50)
	b.Label("top")
	for i := 0; i < 6; i++ {
		b.Op(isa.OpDiv, 2, 2, 3) // long latency, serial
	}
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "top")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 256
	cpu, _ := New(p, cfg)
	res := cpu.Run(1_000_000)
	if res.Termination != TermHalt {
		t.Fatalf("termination %v: watchdog too eager", res.Termination)
	}
}

func TestSpcChainSurvivesMispredicts(t *testing.T) {
	// Heavy mispredict traffic (short inner loops) must not perturb the
	// commit-PC chain.
	p := loopProgram(t, 100, 3)
	res := expectLockstep(t, p, DefaultConfig(), 2_000_000)
	if res.Mispredicts == 0 {
		t.Fatal("expected mispredicts")
	}
	if res.SpcFired != 0 {
		t.Fatalf("spc fired %d times across %d repairs", res.SpcFired, res.Mispredicts)
	}
}

func TestDecodeEventsCountWrongPath(t *testing.T) {
	p := loopProgram(t, 50, 4)
	cpu, _ := New(p, DefaultConfig())
	res := cpu.Run(1_000_000)
	if res.Termination != TermHalt {
		t.Fatalf("termination %v", res.Termination)
	}
	if res.DecodeEvents <= res.Committed {
		t.Fatalf("decode events %d should exceed commits %d (wrong-path decodes)",
			res.DecodeEvents, res.Committed)
	}
}

func TestAllBenchmarksPipelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("16-benchmark pipeline smoke is not short")
	}
	for _, prof := range workload.Suite() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			p, err := workload.CachedProgram(prof)
			if err != nil {
				t.Fatal(err)
			}
			want := functionalStream(p, 8_000)
			cpu, err := New(p, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			idx := 0
			cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
				if idx >= len(want) {
					return
				}
				w := want[idx]
				if pc != w.pc || !o.SameArchEffect(&w.o) {
					t.Fatalf("commit %d diverged", idx)
				}
				idx++
			})
			for cpu.CommittedInsts() < 8_000 {
				if res := cpu.Run(1_000); res.Termination != TermBudget {
					t.Fatalf("termination %v", res.Termination)
				}
			}
			if cpu.Checker().Stats().Mismatches != 0 {
				t.Fatal("fault-free mismatches")
			}
		})
	}
}

func TestRunZeroCycles(t *testing.T) {
	p := loopProgram(t, 2, 2)
	cpu, _ := New(p, DefaultConfig())
	res := cpu.Run(0)
	if res.Termination != TermBudget || res.Committed != 0 {
		t.Fatalf("zero-cycle run: %+v", res)
	}
}

func TestPCFaultScheduling(t *testing.T) {
	p := loopProgram(t, 20, 30)
	cpu, _ := New(p, DefaultConfig())
	cpu.SchedulePCFault(100, 1)
	res := cpu.Run(50_000)
	// The flip lands mid-loop: either detected by ITR (flush), repaired as
	// a mispredict, or the run completes with a corrupted path; in all
	// cases the machine must not wedge before the watchdog.
	if res.Termination == TermBudget && res.Committed == 0 {
		t.Fatal("machine wedged after PC fault")
	}
}

// TestPCFaultDecodeBoundsFirstFlippedDecode: the first decode event at which
// a PC-faulted run's fetched PCs leave a fault-free run's is the first
// instruction fetched through the flipped PC. PCFaultDecode, read in the
// cycle the flip fires, bounds its index within one fetch queue.
func TestPCFaultDecodeBoundsFirstFlippedDecode(t *testing.T) {
	p := loopProgram(t, 200, 30)
	decodes := func(cpu *CPU) *[]uint64 {
		pcs := new([]uint64)
		cpu.SetFaultHook(func(_ int64, pc uint64, _ bool, d isa.DecodeSignals) isa.DecodeSignals {
			*pcs = append(*pcs, pc)
			return d
		})
		return pcs
	}
	checked := 0
	for _, cycle := range []int64{100, 257, 1000, 3001} {
		for _, bit := range []int{1, 2, 5} {
			ref, _ := New(p, DefaultConfig())
			want := decodes(ref)
			ref.Run(cycle + 400)
			cpu, _ := New(p, DefaultConfig())
			got := decodes(cpu)
			cpu.SchedulePCFault(cycle, bit)
			if _, fired := cpu.PCFaultDecode(); fired {
				t.Fatal("PC fault reported fired before the run")
			}
			mark, fired := int64(0), false
			for !fired && cpu.CycleCount() < cycle+400 {
				cpu.Run(1)
				mark, fired = cpu.PCFaultDecode()
			}
			if !fired {
				t.Fatalf("cycle %d bit %d: PC fault never fired", cycle, bit)
			}
			cpu.Run(cycle + 400 - cpu.CycleCount())
			first := int64(0)
			for i := range min(len(*got), len(*want)) {
				if (*got)[i] != (*want)[i] {
					first = int64(i) + 1 // decode indices count from 1
					break
				}
			}
			if first == 0 {
				continue // the flipped fetch was squashed before it decoded
			}
			checked++
			if first > mark || mark-first > int64(DefaultConfig().FetchQueue) {
				t.Errorf("cycle %d bit %d: first flipped decode %d, bound %d", cycle, bit, first, mark)
			}
		}
	}
	if checked < 6 {
		t.Fatalf("only %d of 12 flips reached decode", checked)
	}
}
