package pipeline

import (
	"testing"

	"itr/internal/isa"
	"itr/internal/workload"
)

// TestDualDecodeDetectsAndRecoversInline flips one decode-signal bit in the
// first of an instruction's two decodes: the dual-decode comparator must
// catch it, so the run commits exactly the functional stream, while the same
// flip in the plain frontend's only decode of that instance must corrupt it.
func TestDualDecodeDetectsAndRecoversInline(t *testing.T) {
	p := loopProgram(t, 10, 20)
	run := func(mode RedundancyMode, event int64) (*CPU, *bool) {
		cfg := DefaultConfig()
		cfg.ITREnabled = false
		cfg.Redundancy = mode
		cpu, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		injected := new(bool)
		cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
			if !*injected && i == event {
				*injected = true
				return d.FlipBit(36)
			}
			return d
		})
		return cpu, injected
	}
	// Dual decode counts two decode events per instruction, so event 501 is
	// the first decode of dispatched instruction 251; dual decode costs no
	// bandwidth, so the plain frontend dispatches that same instance as its
	// event 251.
	cpu, injected := run(RedundancyDualDecode, 501)
	res := expectLockstepOn(t, cpu)
	if !*injected {
		t.Fatal("dual-decode injection point not reached")
	}
	if res.Termination != TermHalt {
		t.Fatalf("termination %v", res.Termination)
	}

	plain, injected := run(RedundancyNone, 251)
	if !divergesFromFunctional(plain) {
		t.Fatal("the flip did not corrupt the unprotected run; the comparator check proves nothing")
	}
	if !*injected {
		t.Fatal("plain injection point not reached")
	}
}

// divergesFromFunctional runs an already-configured CPU and reports whether
// its commits leave the functional stream or it stops short of a halt.
func divergesFromFunctional(cpu *CPU) bool {
	st := isa.NewArchState()
	prog := cpu.prog
	st.PC = prog.Entry
	diverged := false
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if diverged {
			return
		}
		if pc != st.PC {
			diverged = true
			return
		}
		want := st.Step(prog.Fetch(pc))
		diverged = !o.SameArchEffect(&want)
	})
	res := cpu.Run(5_000_000)
	return diverged || res.Termination != TermHalt
}

// expectLockstepOn verifies an already-configured CPU against functional
// execution.
func expectLockstepOn(t *testing.T, cpu *CPU) Result {
	t.Helper()
	st := isa.NewArchState()
	prog := cpu.prog
	st.PC = prog.Entry
	idx := 0
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if pc != st.PC {
			t.Fatalf("commit %d: pc %d, functional %d", idx, pc, st.PC)
		}
		want := st.Step(prog.Fetch(pc))
		if !o.SameArchEffect(&want) {
			t.Fatalf("commit %d diverged at pc %d", idx, pc)
		}
		idx++
	})
	res := cpu.Run(5_000_000)
	if idx == 0 {
		t.Fatal("nothing committed")
	}
	return res
}

func TestTimeRedundantHalvesFrontendBandwidth(t *testing.T) {
	p := loopProgram(t, 40, 50)
	base := DefaultConfig()
	base.ITREnabled = false
	cpuBase, _ := New(p, base)
	resBase := cpuBase.Run(5_000_000)

	tr := base
	tr.Redundancy = RedundancyTimeRedundant
	cpuTR, _ := New(p, tr)
	resTR := cpuTR.Run(5_000_000)

	if resBase.Termination != TermHalt || resTR.Termination != TermHalt {
		t.Fatalf("terminations: %v %v", resBase.Termination, resTR.Termination)
	}
	// This frontend-bound loop should lose a large share of its IPC.
	ratio := resTR.IPC() / resBase.IPC()
	if ratio > 0.72 {
		t.Fatalf("time redundancy only cost %.0f%% IPC (base %.2f, tr %.2f)",
			100*(1-ratio), resBase.IPC(), resTR.IPC())
	}
	if ratio < 0.35 {
		t.Fatalf("IPC ratio %.2f implausibly low", ratio)
	}
}

func TestTimeRedundantStillCommitsCorrectly(t *testing.T) {
	p := loopProgram(t, 10, 20)
	cfg := DefaultConfig()
	cfg.ITREnabled = false
	cfg.Redundancy = RedundancyTimeRedundant
	cpu, _ := New(p, cfg)
	expectLockstepOn(t, cpu)
}

func TestDualDecodeNoBandwidthCost(t *testing.T) {
	p := loopProgram(t, 40, 50)
	base := DefaultConfig()
	base.ITREnabled = false
	cpuBase, _ := New(p, base)
	resBase := cpuBase.Run(5_000_000)

	dd := base
	dd.Redundancy = RedundancyDualDecode
	cpuDD, _ := New(p, dd)
	resDD := cpuDD.Run(5_000_000)
	if resDD.IPC() < resBase.IPC()*0.99 {
		t.Fatalf("dual decode cost IPC: %.2f vs %.2f", resDD.IPC(), resBase.IPC())
	}
}

func TestRedundancyModeString(t *testing.T) {
	for _, m := range []RedundancyMode{RedundancyNone, RedundancyDualDecode, RedundancyTimeRedundant, RedundancyMode(9)} {
		if m.String() == "" {
			t.Fatalf("empty name for %d", int(m))
		}
	}
}

// TestMaxDecodesPerCycleBounds: in every redundancy mode, no cycle of a
// fault-free run of each coverage benchmark adds more decode events than
// MaxDecodesPerCycle, and the plain and dual-decode frontends reach the
// bound, so it is the tightest per-cycle bound for them.
func TestMaxDecodesPerCycleBounds(t *testing.T) {
	for _, mode := range []RedundancyMode{RedundancyNone, RedundancyDualDecode, RedundancyTimeRedundant} {
		peak := int64(0)
		for _, prof := range workload.CoverageSuite() {
			prog, err := workload.CachedProgram(prof)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Redundancy = mode
			cpu, err := New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bound := cpu.MaxDecodesPerCycle()
			for cycle := 0; cycle < 3000; cycle++ {
				before := cpu.DecodeEvents()
				if res := cpu.Run(1); res.Termination != TermBudget {
					t.Fatalf("%v %s: termination %v", mode, prof.Name, res.Termination)
				}
				d := cpu.DecodeEvents() - before
				if d > bound {
					t.Fatalf("%v %s: cycle %d added %d decode events, bound %d", mode, prof.Name, cycle, d, bound)
				}
				peak = max(peak, d)
			}
		}
		want := int64(DefaultConfig().FetchWidth)
		if mode == RedundancyDualDecode {
			want *= 2
		}
		if mode != RedundancyTimeRedundant && peak != want {
			t.Errorf("%v: peak %d decode events in a cycle, want the bound %d", mode, peak, want)
		}
	}
}
