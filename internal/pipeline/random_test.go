package pipeline

import (
	"testing"

	"itr/internal/cache"
	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/stats"
	"itr/internal/trace"
	"itr/internal/workload"
)

// randomProgram synthesizes a random but well-formed benchmark-shaped
// program from a seed, via the workload generator with a random profile.
func randomProgram(t *testing.T, seed uint64) *program.Program {
	t.Helper()
	rng := stats.NewRNG(seed)
	nComp := 1 + rng.Intn(4)
	comps := make([]workload.Component, nComp)
	hot := 0
	for i := range comps {
		comps[i] = workload.Component{
			Traces: 3 + rng.Intn(40),
			Iters:  1 + rng.Intn(30),
		}
		hot += comps[i].Traces
	}
	prof := workload.Profile{
		Name:         "random",
		FP:           rng.Bool(0.4),
		StaticTraces: hot + nComp + 12 + rng.Intn(120),
		Components:   comps,
		Seed:         rng.Uint64(),
	}
	prog, err := workload.Build(prof)
	if err != nil {
		t.Fatalf("seed %#x: %v", seed, err)
	}
	return prog
}

// The central integration property: for arbitrary generated programs, the
// ITR-protected out-of-order pipeline commits exactly the functional
// instruction stream, and the fault-free checkers stay silent.
func TestPropertyRandomProgramsLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("random lockstep sweep is not short")
	}
	const limit = 25_000
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			prog := randomProgram(t, seed*0x9e3779b9)
			want := functionalStream(prog, limit)

			cfg := DefaultConfig()
			cfg.RenameITREnabled = true
			cfg.CheckpointEnabled = true
			cpu, err := New(prog, cfg)
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
					t.Fatalf("seed %d: commit %d diverged (pc %d vs %d)", seed, idx, pc, w.pc)
				}
				idx++
			})
			for cpu.CommittedInsts() < limit {
				res := cpu.Run(40_000)
				if res.Termination != TermBudget {
					t.Fatalf("seed %d: termination %v after %d commits", seed, res.Termination, idx)
				}
			}
			if idx < limit/2 {
				t.Fatalf("seed %d: only %d commits compared", seed, idx)
			}
			if st := cpu.Checker().Stats(); st.Mismatches != 0 {
				t.Fatalf("seed %d: frontend mismatches on fault-free run: %+v", seed, st)
			}
			if st := cpu.RenameChecker().Stats(); st.Mismatches != 0 {
				t.Fatalf("seed %d: rename mismatches on fault-free run: %+v", seed, st)
			}
		})
	}
}

// The coverage simulator and the pipeline's ITR checker must agree on the
// trace stream: the traces the checker has retired (dispatched, minus
// squashed, minus still in flight) are exactly the complete traces of the
// functional stream over the instructions the pipeline committed.
func TestPipelineTraceStreamMatchesWalker(t *testing.T) {
	prog := randomProgram(t, 0xfeed)
	const limit = 20_000

	cpu, err := New(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cpu.CommittedInsts() < limit {
		if res := cpu.Run(64); res.Termination != TermBudget {
			t.Fatalf("termination %v", res.Termination)
		}
	}
	complete := int64(0)
	trace.Stream(prog, cpu.CommittedInsts(), func(ev trace.Event) bool {
		if !ev.Partial {
			complete++
		}
		return true
	})
	st := cpu.Checker().Stats()
	if retired := st.Dispatched - st.Squashed - int64(cpu.Checker().PendingTraces()); retired != complete {
		t.Fatalf("over %d committed instructions: pipeline retired %d traces, walker formed %d complete",
			cpu.CommittedInsts(), retired, complete)
	}
}

// TestPipelineTracesMatchTraceSig ties the pipeline's trace former to the
// decode table's static walk: after a fault-free run of each suite
// benchmark, every resident ITR-cache line holds DecodeTable.TraceSig of its
// start PC. Only committed traces install, so wrong-path traces (which run
// past halts and may start anywhere) cannot leave a line behind.
func TestPipelineTracesMatchTraceSig(t *testing.T) {
	for _, p := range workload.Suite() {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := New(prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res := cpu.Run(20_000); res.Termination != TermBudget {
			t.Fatalf("%s: termination %v", p.Name, res.Termination)
		}
		tab := prog.DecodeTable()
		lines := 0
		cpu.Checker().Cache().Visit(func(ln *cache.Line) {
			lines++
			if want := tab.TraceSig(ln.Key); ln.Value != want {
				t.Errorf("%s: ITR cache line %d holds %#x, TraceSig %#x", p.Name, ln.Key, ln.Value, want)
			}
		})
		if lines == 0 {
			t.Errorf("%s: no resident ITR-cache lines", p.Name)
		}
	}
}
