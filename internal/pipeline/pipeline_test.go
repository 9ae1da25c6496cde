package pipeline

import (
	"testing"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/workload"
)

// loopProgram builds a small two-level loop nest with memory traffic.
func loopProgram(t testing.TB, outer, inner int16) *program.Program {
	t.Helper()
	b := program.NewBuilder("nest")
	b.OpImm(isa.OpAddi, 1, 0, outer)
	b.OpImm(isa.OpAddi, 4, 0, 0x1000) // data base
	b.Label("outer")
	b.OpImm(isa.OpAddi, 2, 0, inner)
	b.Label("inner")
	b.OpImm(isa.OpAddi, 3, 3, 1)
	b.Op(isa.OpMul, 5, 3, 3)
	b.Store(isa.OpSd, 5, 4, 8)
	b.Load(isa.OpLd, 6, 4, 8)
	b.Op(isa.OpXor, 7, 6, 3)
	b.OpImm(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "inner")
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "outer")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// functionalStream captures the reference committed stream.
func functionalStream(p *program.Program, limit int64) []struct {
	pc uint64
	o  isa.Outcome
} {
	var out []struct {
		pc uint64
		o  isa.Outcome
	}
	program.Run(p, limit, func(pc uint64, inst isa.Instruction, o isa.Outcome) bool {
		out = append(out, struct {
			pc uint64
			o  isa.Outcome
		}{pc, o})
		return true
	})
	return out
}

// expectLockstep runs the pipeline and fails if the committed stream ever
// deviates from functional execution.
func expectLockstep(t *testing.T, p *program.Program, cfg Config, maxCycles int64) Result {
	t.Helper()
	want := functionalStream(p, 0)
	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if idx >= len(want) {
			t.Fatalf("committed more instructions than functional run (%d)", idx)
		}
		w := want[idx]
		if pc != w.pc || !o.SameArchEffect(&w.o) {
			t.Fatalf("commit %d diverged: pipeline pc=%d %v, functional pc=%d %v",
				idx, pc, o, w.pc, w.o)
		}
		idx++
	})
	res := cpu.Run(maxCycles)
	if res.Termination != TermHalt {
		t.Fatalf("termination = %v, want halt (committed %d of %d)", res.Termination, idx, len(want))
	}
	if idx != len(want) {
		t.Fatalf("committed %d instructions, functional executed %d", idx, len(want))
	}
	return res
}

func TestPipelineLockstepSmallLoop(t *testing.T) {
	p := loopProgram(t, 10, 20)
	res := expectLockstep(t, p, DefaultConfig(), 1_000_000)
	if res.SpcFired != 0 {
		t.Fatalf("spc fired %d times on a fault-free run", res.SpcFired)
	}
	if res.IPC() <= 0.5 {
		t.Fatalf("suspiciously low IPC %.2f", res.IPC())
	}
}

func TestPipelineLockstepWithITRDisabled(t *testing.T) {
	p := loopProgram(t, 5, 10)
	cfg := DefaultConfig()
	cfg.ITREnabled = false
	expectLockstep(t, p, cfg, 1_000_000)
}

func TestPipelineLockstepObserveMode(t *testing.T) {
	p := loopProgram(t, 5, 10)
	cfg := DefaultConfig()
	cfg.ITRMode = core.ModeObserve
	expectLockstep(t, p, cfg, 1_000_000)
}

func TestPipelineFaultFreeHasNoDetections(t *testing.T) {
	p := loopProgram(t, 20, 30)
	cpu, err := New(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(1_000_000)
	if res.Termination != TermHalt {
		t.Fatalf("termination = %v", res.Termination)
	}
	st := cpu.Checker().Stats()
	if st.Mismatches != 0 || st.Retries != 0 || st.MachineChecks != 0 {
		t.Fatalf("fault-free run produced checker events: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatal("ITR cache never hit on a loopy program")
	}
	if res.ITRFlushes != 0 {
		t.Fatalf("ITR flushes on fault-free run: %d", res.ITRFlushes)
	}
}

func TestPipelineBenchmarkLockstep(t *testing.T) {
	// The synthesized benchmarks (with wrong paths, jumps, cold code, fp)
	// must commit exactly the functional stream.
	expectWorkloadLockstep(t, "gap", DefaultConfig(), 60_000)
}

// TestWorkloadLockstepOnOddROBs runs a synthesized benchmark in lockstep on
// ROBs whose issue scan wraps differently from the default 128-entry ring:
// 24 entries (capacity below the 32-slot ring, which is shorter than one
// bitset word), 16 entries with a narrow window and fetch queue, and 200
// entries (capacity below a four-word ring, so the window crosses words).
func TestWorkloadLockstepOnOddROBs(t *testing.T) {
	for _, v := range []struct {
		name string
		mod  func(*Config)
	}{
		{"rob24", func(c *Config) { c.ROBSize = 24 }},
		{"rob16", func(c *Config) {
			c.ROBSize = 16
			c.IssueWindow = 8
			c.FetchQueue = 4
		}},
		{"rob200", func(c *Config) { c.ROBSize = 200 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig()
			v.mod(&cfg)
			expectWorkloadLockstep(t, "gap", cfg, 20_000)
		})
	}
}

// expectWorkloadLockstep runs the named benchmark under cfg until limit
// instructions commit and checks each commit against the functional stream.
func expectWorkloadLockstep(t *testing.T, name string, cfg Config, limit int64) {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := functionalStream(p, limit)
	cpu, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	bad := false
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if bad || idx >= len(want) {
			return
		}
		w := want[idx]
		if pc != w.pc || !o.SameArchEffect(&w.o) {
			t.Errorf("commit %d diverged: pipeline pc=%d, functional pc=%d", idx, pc, w.pc)
			bad = true
		}
		idx++
	})
	for cpu.CommittedInsts() < limit && !bad {
		res := cpu.Run(50_000)
		if res.Termination != TermBudget {
			t.Fatalf("unexpected termination %v", res.Termination)
		}
	}
	if int64(idx) < limit/2 {
		t.Fatalf("too few commits compared: %d", idx)
	}
	if cpu.Checker().Stats().Mismatches != 0 {
		t.Fatal("fault-free benchmark produced mismatches")
	}
}

func TestPipelineFPBenchmarkLockstep(t *testing.T) {
	prof, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 40_000
	want := functionalStream(p, limit)
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
			t.Fatalf("commit %d diverged (pc %d vs %d)", idx, pc, w.pc)
		}
		idx++
	})
	cpu.Run(200_000)
	if idx < limit/2 {
		t.Fatalf("too few commits: %d", idx)
	}
}

func TestPipelineBudgetTermination(t *testing.T) {
	p := loopProgram(t, 10000, 10000)
	cpu, _ := New(p, DefaultConfig())
	res := cpu.Run(1000)
	if res.Termination != TermBudget {
		t.Fatalf("termination = %v", res.Termination)
	}
	if res.Cycles != 1000 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
}

func TestPipelineRunResumes(t *testing.T) {
	p := loopProgram(t, 10, 20)
	cpu, _ := New(p, DefaultConfig())
	r1 := cpu.Run(100)
	if r1.Termination != TermBudget {
		t.Fatalf("first run: %v", r1.Termination)
	}
	r2 := cpu.Run(1_000_000)
	if r2.Termination != TermHalt {
		t.Fatalf("second run: %v", r2.Termination)
	}
	if r2.Committed <= r1.Committed {
		t.Fatal("no progress on resume")
	}
}

// Fault: corrupt rdst of one dynamic instruction. With the full ITR
// protocol the fault must be detected at commit-poll, flushed and re-
// executed, and the committed stream must remain exactly the golden stream.
func TestPipelineITRRecoversRdstFault(t *testing.T) {
	p := loopProgram(t, 10, 20)
	want := functionalStream(p, 0)
	cpu, _ := New(p, DefaultConfig())
	injected := false
	cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		// Corrupt a mid-run instruction that writes a register.
		if !injected && i == 400 && d.NumRdst == 1 {
			injected = true
			return d.FlipBit(36) // a bit of the rdst field
		}
		return d
	})
	idx := 0
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		w := want[idx]
		if pc != w.pc || !o.SameArchEffect(&w.o) {
			t.Fatalf("commit %d diverged after recovery: pc=%d vs %d", idx, pc, w.pc)
		}
		idx++
	})
	res := cpu.Run(1_000_000)
	if !injected {
		t.Skip("injection point not reached (instruction 400 had no rdst)")
	}
	if res.Termination != TermHalt {
		t.Fatalf("termination = %v", res.Termination)
	}
	st := cpu.Checker().Stats()
	if st.Mismatches == 0 || st.Retries == 0 || st.Recoveries == 0 {
		t.Fatalf("fault not detected+recovered: %+v", st)
	}
	if res.ITRFlushes == 0 {
		t.Fatal("no ITR flush recorded")
	}
}

// The same fault in observe mode must corrupt architectural state (SDC) and
// be recorded as a detection without any recovery.
func TestPipelineObserveModeRecordsSDC(t *testing.T) {
	p := loopProgram(t, 10, 20)
	want := functionalStream(p, 0)
	cfg := DefaultConfig()
	cfg.ITRMode = core.ModeObserve
	cpu, _ := New(p, cfg)
	injected := false
	cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		if !injected && i == 400 && d.NumRdst == 1 && !d.IsBranching() {
			injected = true
			d.Rdst ^= 0x1f // gross rdst corruption
			return d
		}
		return d
	})
	diverged := false
	idx := 0
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if diverged || idx >= len(want) {
			return
		}
		w := want[idx]
		if pc != w.pc || !o.SameArchEffect(&w.o) {
			diverged = true
		}
		idx++
	})
	cpu.Run(1_000_000)
	if !injected {
		t.Skip("injection point not reached")
	}
	if !diverged {
		t.Fatal("corrupted rdst did not corrupt the committed stream")
	}
	if len(cpu.Checker().Detections()) == 0 {
		t.Fatal("observe mode recorded no detection")
	}
	if cpu.Checker().Stats().Retries != 0 {
		t.Fatal("observe mode must not retry")
	}
}

// num_rsrc corrupted to 3 makes the instruction wait forever; without ITR
// the watchdog must catch the deadlock.
func TestPipelineWatchdogCatchesDeadlock(t *testing.T) {
	p := loopProgram(t, 10, 20)
	cfg := DefaultConfig()
	cfg.ITREnabled = false
	cfg.WatchdogCycles = 2000
	cpu, _ := New(p, cfg)
	injected := false
	cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		if !injected && i > 400 && d.Opcode == isa.OpMul {
			injected = true
			d.NumRsrc = 3
			return d
		}
		return d
	})
	res := cpu.Run(1_000_000)
	if !injected {
		t.Fatal("injection point not reached")
	}
	if res.Termination != TermDeadlock {
		t.Fatalf("termination = %v, want deadlock", res.Termination)
	}
}

// With full ITR the same deadlock fault is detected by the commit poll of an
// earlier instruction in the trace and recovered by the retry flush — the
// paper's ITR+wdog+R scenario.
func TestPipelineITRRescuesDeadlock(t *testing.T) {
	p := loopProgram(t, 10, 20)
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 4000
	cpu, _ := New(p, cfg)
	injected := false
	cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		// Inject mid-trace (the mul is never the first instruction of its
		// trace), so an earlier instruction of the faulty trace polls the
		// retry bit before the deadlocked one blocks commit.
		if !injected && i > 400 && d.Opcode == isa.OpMul {
			injected = true
			d.NumRsrc = 3
			return d
		}
		return d
	})
	res := cpu.Run(1_000_000)
	if !injected {
		t.Fatal("injection point not reached")
	}
	if res.Termination != TermHalt {
		t.Fatalf("termination = %v, want halt (recovered)", res.Termination)
	}
	if cpu.Checker().Stats().Recoveries == 0 {
		t.Fatal("no recovery recorded")
	}
}

// is_branch cleared on a predicted-taken branch: fetch redirects, nobody
// validates, and the committed stream has a PC discontinuity that the
// sequential-PC check catches (the paper's Section 4 spc scenario).
func TestPipelineSpcCatchesIsBranchFault(t *testing.T) {
	p := loopProgram(t, 30, 40)
	cfg := DefaultConfig()
	cfg.ITRMode = core.ModeObserve // let the fault commit
	cpu, _ := New(p, cfg)
	injected := false
	cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		// Wait until the backedge branch is warm in the BTB, then clear
		// is_branch on one of its instances.
		if !injected && i > 2000 && d.IsBranching() && !d.HasFlag(isa.FlagUncond) {
			injected = true
			d.Flags &^= isa.FlagBranch
			return d
		}
		return d
	})
	res := cpu.Run(1_000_000)
	if !injected {
		t.Fatal("injection point not reached")
	}
	if res.SpcFired == 0 {
		t.Fatal("sequential-PC check did not fire")
	}
}

func TestPredictorLearnsLoopBranch(t *testing.T) {
	pr := NewPredictor(64, 2, 8)
	pc, target := uint64(100), uint64(50)
	// Train a strongly-taken branch past gshare history warm-up: once the
	// history register saturates at all-taken, the steady-state counter
	// saturates too.
	for i := 0; i < 20; i++ {
		pr.Train(pc, target, true, false)
	}
	next, taken := pr.Predict(pc)
	if !taken || next != target {
		t.Fatalf("predict = %d taken=%v", next, taken)
	}
	// Unknown PC falls through.
	next, taken = pr.Predict(999)
	if taken || next != 1000 {
		t.Fatalf("cold predict = %d taken=%v", next, taken)
	}
}

func TestPredictorUnconditionalAlwaysTaken(t *testing.T) {
	pr := NewPredictor(64, 2, 8)
	pr.Train(7, 1234, true, true)
	next, taken := pr.Predict(7)
	if !taken || next != 1234 {
		t.Fatalf("uncond predict = %d taken=%v", next, taken)
	}
}

// TestNewRejectsPredictorGeometry: New refuses, before allocating, any
// BTB whose set count is not a power of two and any gshare table past
// maxGshareBits, and builds (and runs) the odd-sized but valid geometries.
func TestNewRejectsPredictorGeometry(t *testing.T) {
	p := loopProgram(t, 2, 3)
	cases := []struct {
		name       string
		btb, assoc int
		gshare     uint
		ok         bool
	}{
		{"default", 0, 0, 0, true},
		{"btb-48x3", 48, 3, 0, true}, // 16 sets
		{"btb-fully-assoc", 64, 64, 0, true},
		{"gshare-bound", 0, 0, maxGshareBits - 4, true},
		{"btb-1024x3", 1024, 3, 0, false}, // 341 sets, masked index aliases
		{"btb-assoc-over-entries", 64, 128, 0, false},
		{"btb-negative-entries", -4, 2, 0, false},
		{"btb-negative-assoc", 1024, -2, 0, false},
		{"gshare-over-bound", 0, 0, maxGshareBits + 1, false},
		{"gshare-63", 0, 0, 63, false},
		{"gshare-64", 0, 0, 64, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BTBEntries, cfg.BTBAssoc, cfg.GshareBits = tc.btb, tc.assoc, tc.gshare
			cpu, err := New(p, cfg)
			if !tc.ok {
				if err == nil {
					t.Fatal("New accepted the geometry")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res := cpu.Run(100_000); res.Termination != TermHalt {
				t.Fatalf("termination %v", res.Termination)
			}
		})
	}
}

func TestPredictorDirectionAdapts(t *testing.T) {
	pr := NewPredictor(64, 2, 8)
	pc, target := uint64(100), uint64(50)
	pr.Train(pc, target, true, false) // install BTB entry
	for i := 0; i < 8; i++ {
		pr.Train(pc, target, false, false)
	}
	if _, taken := pr.Predict(pc); taken {
		t.Fatal("not-taken branch still predicted taken")
	}
}

func TestPipelineMispredictsAreRepaired(t *testing.T) {
	// The inner loop exit mispredicts each outer iteration; commits must
	// still be exact (checked via lockstep) and repairs counted.
	p := loopProgram(t, 30, 5)
	res := expectLockstep(t, p, DefaultConfig(), 1_000_000)
	if res.Mispredicts == 0 {
		t.Fatal("no mispredictions on a loop-exit-heavy program")
	}
}

func TestConfigNormalize(t *testing.T) {
	var cfg Config
	n := cfg.normalize()
	if n.FetchWidth == 0 || n.ROBSize == 0 || n.WatchdogCycles == 0 {
		t.Fatalf("normalize left zeros: %+v", n)
	}
}

func TestTerminationString(t *testing.T) {
	for _, term := range []Termination{TermBudget, TermHalt, TermMachineCheck, TermDeadlock, Termination(99)} {
		if term.String() == "" {
			t.Fatalf("empty rendering for %d", int(term))
		}
	}
}

func TestStoreOverlay(t *testing.T) {
	base := isa.NewMemory()
	base.Store(0x100, 8, 0x1111)
	o := newStoreOverlay(base, 4)
	if o.Load(0x100, 8) != 0x1111 {
		t.Fatal("overlay must read through to base")
	}
	o.Store(0x100, 4, 0x2222)
	if o.Load(0x100, 8) != 0x2222 {
		t.Fatalf("overlay write lost: %#x", o.Load(0x100, 8))
	}
	if base.Load(0x100, 8) != 0x1111 {
		t.Fatal("overlay leaked into base")
	}
	o.Reset()
	if o.Load(0x100, 8) != 0x1111 {
		t.Fatal("reset did not discard speculative words")
	}
}

func TestStoreOverlaySubword(t *testing.T) {
	base := isa.NewMemory()
	o := newStoreOverlay(base, 4)
	o.Store(0x10, 1, 0xaa)
	o.Store(0x11, 1, 0xbb)
	if got := o.Load(0x10, 2); got != 0xbbaa {
		t.Fatalf("subword overlay = %#x", got)
	}
}
