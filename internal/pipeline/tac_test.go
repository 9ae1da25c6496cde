package pipeline

import (
	"reflect"
	"testing"

	"itr/internal/isa"
	"itr/internal/workload"
)

// schedFaultAfter fires the scheduler fault once, at the first premature
// issue opportunity past the given decode event.
func schedFaultAfter(after int64) (SchedulerFaultHook, *bool) {
	fired := new(bool)
	return func(i int64) bool {
		if !*fired && i > after {
			*fired = true
			return true
		}
		return false
	}, fired
}

func TestSchedulerFaultCausesSDCWithoutTAC(t *testing.T) {
	p := loopProgram(t, 20, 30) // mul feeds store: real dependences
	cfg := DefaultConfig()
	cfg.TACEnabled = false
	cpu, _ := New(p, cfg)
	hook, fired := schedFaultAfter(500)
	cpu.SetSchedulerFaultHook(hook)

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
	cpu.Run(2_000_000)
	if !*fired {
		t.Skip("no premature-issue opportunity arose")
	}
	if !diverged {
		t.Skip("stale value happened to match (masked)")
	}
	// The frontend ITR signature is blind to scheduler faults: the decode
	// signals were never corrupted.
	if cpu.Checker().Stats().Mismatches != 0 {
		t.Fatal("frontend ITR detected a scheduler fault — it should be blind")
	}
}

func TestTACDetectsAndRecoversSchedulerFault(t *testing.T) {
	p := loopProgram(t, 20, 30)
	cfg := DefaultConfig()
	cfg.TACEnabled = true
	cpu, _ := New(p, cfg)
	hook, fired := schedFaultAfter(500)
	cpu.SetSchedulerFaultHook(hook)

	st := isa.NewArchState()
	st.PC = p.Entry
	idx := 0
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if pc != st.PC {
			t.Fatalf("commit %d: pc %d, functional %d", idx, pc, st.PC)
		}
		want := st.Step(p.Fetch(pc))
		if !o.SameArchEffect(&want) {
			t.Fatalf("commit %d diverged at pc %d (TAC failed to stop the stale result)", idx, pc)
		}
		idx++
	})
	res := cpu.Run(2_000_000)
	if !*fired {
		t.Skip("no premature-issue opportunity arose")
	}
	if res.Termination != TermHalt {
		t.Fatalf("termination: %v", res.Termination)
	}
	tac := cpu.TAC()
	if tac.Violations != 1 || tac.Recovered != 1 {
		t.Fatalf("tac stats: %+v", tac)
	}
}

func TestTACFaultFreeIsSilent(t *testing.T) {
	p := loopProgram(t, 10, 20)
	cfg := DefaultConfig()
	cfg.TACEnabled = true
	cpu, _ := New(p, cfg)
	res := cpu.Run(2_000_000)
	if res.Termination != TermHalt {
		t.Fatalf("termination: %v", res.Termination)
	}
	tac := cpu.TAC()
	if tac.Violations != 0 {
		t.Fatalf("fault-free violations: %+v", tac)
	}
	if tac.Checked == 0 {
		t.Fatal("TAC never checked anything")
	}
}

func TestTACLockstep(t *testing.T) {
	p := loopProgram(t, 10, 20)
	cfg := DefaultConfig()
	cfg.TACEnabled = true
	cpu, _ := New(p, cfg)
	expectLockstepOn(t, cpu)
}

// TestIdleSchedulerHookIsInvisible: an armed scheduler hook that never fires
// must leave a run bit-identical to one with no hook — same Result (decode
// events included) and commit stream — which pins that the hooked issue scan
// issues exactly what the plain scan issues. The small-ROB variant's ring is
// shorter than one bitset word, so the scan's span wraps mid-word.
func TestIdleSchedulerHookIsInvisible(t *testing.T) {
	prof, err := workload.ByName("gap")
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultConfig()
	small.ROBSize = 24
	for _, v := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"rob24", small}} {
		t.Run(v.name, func(t *testing.T) {
			offered := 0
			run := func(hooked bool) (Result, []commitRecord) {
				cpu, err := New(p, v.cfg)
				if err != nil {
					t.Fatal(err)
				}
				var stream []commitRecord
				cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
					stream = append(stream, commitRecord{pc, *o})
				})
				if hooked {
					cpu.SetSchedulerFaultHook(func(int64) bool {
						offered++
						return false
					})
				}
				return cpu.Run(30_000), stream
			}
			plainRes, plain := run(false)
			hookedRes, hooked := run(true)
			if offered == 0 {
				t.Fatal("the hook was never offered a not-ready candidate")
			}
			if hookedRes != plainRes {
				t.Fatalf("result differs:\nplain  %+v\nhooked %+v", plainRes, hookedRes)
			}
			if !reflect.DeepEqual(hooked, plain) {
				t.Fatalf("commit streams differ (%d vs %d commits)", len(hooked), len(plain))
			}
		})
	}
}
