package itr_test

import (
	"testing"

	"itr"
	"itr/internal/isa"
	"itr/internal/pipeline"
)

func TestFacadeBenchmarks(t *testing.T) {
	if got := len(itr.Benchmarks()); got != 16 {
		t.Fatalf("benchmarks = %d", got)
	}
	b, err := itr.BenchmarkByName("bzip")
	if err != nil || b.StaticTraces != 283 {
		t.Fatalf("bzip: %+v, %v", b, err)
	}
	if _, err := itr.BenchmarkByName("none"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFacadeDesignSpace(t *testing.T) {
	if got := len(itr.DesignSpace()); got != 18 {
		t.Fatalf("design space = %d", got)
	}
	cfg := itr.DefaultCacheConfig()
	if cfg.Entries != 1024 || cfg.Assoc != 2 {
		t.Fatalf("default cache config %+v", cfg)
	}
}

func TestFacadeBuildAndCharacterize(t *testing.T) {
	b, err := itr.BenchmarkByName("wupwise")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := itr.BuildBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() == 0 {
		t.Fatal("empty program")
	}
	c, err := itr.Characterize(b, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.StaticTraces() != 18 {
		t.Fatalf("wupwise static traces = %d", c.StaticTraces())
	}
}

func TestFacadeCoverage(t *testing.T) {
	b, err := itr.BenchmarkByName("art")
	if err != nil {
		t.Fatal(err)
	}
	res, err := itr.Coverage(b, itr.DefaultCacheConfig(), 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInsts != 300_000 {
		t.Fatalf("total insts = %d", res.TotalInsts)
	}
	if res.DetectionLoss > 1 {
		t.Fatalf("art detection loss %.2f%%, should be negligible", res.DetectionLoss)
	}
}

func TestFacadeInjectFaults(t *testing.T) {
	b, err := itr.BenchmarkByName("art")
	if err != nil {
		t.Fatal(err)
	}
	cfg := itr.DefaultCampaign()
	cfg.Faults = 4
	cfg.Experiment.WindowCycles = 20_000
	res, err := itr.InjectFaults(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 4 {
		t.Fatalf("total = %d", res.Total)
	}
}

func TestFacadeNewCPU(t *testing.T) {
	b, err := itr.BenchmarkByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := itr.BuildBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := itr.NewCPU(prog, itr.DefaultPipeline())
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(5_000)
	if res.Termination != pipeline.TermBudget || res.Committed == 0 {
		t.Fatalf("run: %+v", res)
	}
	if cpu.Checker() == nil {
		t.Fatal("default pipeline must attach the ITR checker")
	}
}

// End-to-end integration: the committed stream of the facade-built CPU
// matches functional execution of the facade-built program.
func TestFacadeEndToEndLockstep(t *testing.T) {
	b, err := itr.BenchmarkByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := itr.BuildBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	st := isa.NewArchState()
	st.PC = prog.Entry
	cpu, err := itr.NewCPU(prog, itr.DefaultPipeline())
	if err != nil {
		t.Fatal(err)
	}
	mismatch := false
	n := 0
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if mismatch {
			return
		}
		if pc != st.PC {
			mismatch = true
			return
		}
		want := st.Step(prog.Fetch(pc))
		if !o.SameArchEffect(&want) {
			mismatch = true
		}
		n++
	})
	cpu.Run(20_000)
	if mismatch {
		t.Fatal("pipeline diverged from functional execution")
	}
	if n < 10_000 {
		t.Fatalf("too few commits: %d", n)
	}
}

func TestVersion(t *testing.T) {
	if itr.Version == "" {
		t.Fatal("version must be set")
	}
}

func TestFacadeExtensionsCompose(t *testing.T) {
	// The full regimen — parity, rename ITR, checkpointing — must run
	// fault-free through the facade without events.
	b, err := itr.BenchmarkByName("art")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := itr.BuildBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := itr.DefaultPipeline()
	cfg.ITR.Parity = true
	cfg.RenameITREnabled = true
	cfg.CheckpointEnabled = true
	cpu, err := itr.NewCPU(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(30_000)
	if res.Termination != pipeline.TermBudget {
		t.Fatalf("termination: %v", res.Termination)
	}
	if cpu.Checker().Stats().Mismatches != 0 ||
		cpu.RenameChecker().Stats().Mismatches != 0 {
		t.Fatal("fault-free regimen produced check events")
	}
	if res.CheckpointsTaken == 0 {
		t.Fatal("no checkpoints taken")
	}
}

func TestFacadeCampaignWithCheckpoint(t *testing.T) {
	b, err := itr.BenchmarkByName("art")
	if err != nil {
		t.Fatal(err)
	}
	cfg := itr.DefaultCampaign()
	cfg.Faults = 3
	cfg.Experiment.WindowCycles = 15_000
	cfg.Experiment.Checkpoint = true
	res, err := itr.InjectFaults(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 3 {
		t.Fatalf("total = %d", res.Total)
	}
}
