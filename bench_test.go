// Benchmarks regenerating every table and figure of the paper's evaluation.
//
// Each BenchmarkFigureN / BenchmarkTableN regenerates the corresponding
// result through the same internal/report entry points the cmd tools use,
// and reports the headline metric of that experiment via b.ReportMetric.
// Each iteration runs on its own report.Engine, so the engine's
// characterization memo never turns a later iteration into a memo read.
// Instruction budgets are scaled down from the cmd defaults so a full
// `go test -bench=.` pass completes in minutes on one core; the cmd tools
// expose flags for paper-scale runs.
//
// Microbenchmarks at the bottom measure the hot paths of the simulator
// itself (signature generation, ITR cache access, pipeline cycles).
package itr_test

import (
	"slices"
	"testing"
	"time"

	"itr/internal/cache"
	"itr/internal/core"
	"itr/internal/energy"
	"itr/internal/fault"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/report"
	"itr/internal/sig"
	"itr/internal/trace"
	"itr/internal/workload"
)

// benchBudget is the per-benchmark instruction budget used by the figure
// benchmarks (profiles with BudgetScale still multiply it).
const benchBudget = 1_500_000

// BenchmarkFigure1 regenerates Figure 1: dynamic instructions contributed by
// the top-k static traces, SPECint.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := new(report.Engine).PopularityFigure(workload.IntSuite(), 100, 1000, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		// Paper anchor: in bzip, 100 static traces contribute 99% of all
		// dynamic instructions.
		for _, s := range series {
			if s.Name == "bzip" {
				b.ReportMetric(s.Points[0].Y, "bzip-top100-%")
			}
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: same CDF for SPECfp.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := new(report.Engine).PopularityFigure(workload.FPSuite(), 50, 500, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		// Paper anchor: in wupwise, 50 static traces contribute 99%.
		for _, s := range series {
			if s.Name == "wupwise" {
				b.ReportMetric(s.Points[0].Y, "wupwise-top50-%")
			}
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: repeat-distance distribution,
// SPECint.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := new(report.Engine).DistanceFigure(workload.IntSuite(), benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		// Paper anchor: all integer benchmarks except perl and vortex
		// reach 85% within 5000 instructions.
		reach := 0.0
		for _, s := range series {
			if s.Name == "bzip" {
				reach = s.Points[9].Y // bucket < 5000
			}
		}
		b.ReportMetric(reach, "bzip-within5000-%")
	}
}

// BenchmarkFigure4 regenerates Figure 4: repeat-distance distribution,
// SPECfp.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := new(report.Engine).DistanceFigure(workload.FPSuite(), benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		// Paper anchor: fp benchmarks (except apsi) repeat within 1500.
		for _, s := range series {
			if s.Name == "wupwise" {
				b.ReportMetric(s.Points[2].Y, "wupwise-within1500-%")
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: static trace counts.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(report.Engine).Table1(workload.DefaultBudget)
		if err != nil {
			b.Fatal(err)
		}
		exact := 0
		for _, r := range rows {
			if r.Measured == r.Paper {
				exact++
			}
		}
		b.ReportMetric(float64(exact), "exact-matches-of-16")
	}
}

// BenchmarkTable2 exercises the Table 2 decode-signal vector: full
// pack/unpack round trips of the 64-bit signal word.
func BenchmarkTable2(b *testing.B) {
	d := isa.Decode(isa.Instruction{Op: isa.OpLw, Rd: 5, Rs1: 4, Imm: 128})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := d.Pack()
		d = isa.UnpackSignals(w)
	}
	if d.Opcode != isa.OpLw {
		b.Fatal("round trip corrupted signals")
	}
}

// coverageSweepBench runs the Figures 6/7 sweep and reports the vortex
// worst-case cell for the requested metric.
func coverageSweepBench(b *testing.B, metric string) {
	for i := 0; i < b.N; i++ {
		cells, err := new(report.Engine).CoverageSweepWarm(workload.CoverageSuite(), core.DesignSpace(), benchBudget, 0)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, c := range cells {
			v := c.Result.DetectionLoss
			if metric == "recovery" {
				v = c.Result.RecoveryLoss
			}
			if c.Benchmark == "vortex" && c.Config.String() == "dm/256" {
				worst = v
			}
		}
		b.ReportMetric(worst, "vortex-dm256-loss-%")
	}
}

// BenchmarkFigure6 regenerates Figure 6: loss in fault detection coverage
// across the 18-configuration design space.
func BenchmarkFigure6(b *testing.B) { coverageSweepBench(b, "detection") }

// BenchmarkFigure7 regenerates Figure 7: loss in fault recovery coverage.
func BenchmarkFigure7(b *testing.B) { coverageSweepBench(b, "recovery") }

// BenchmarkHeadlineCoverage regenerates the Section 3 headline numbers
// (2-way/1024: 1.3% avg / 8.2% max detection loss in the paper).
func BenchmarkHeadlineCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := new(report.Engine).HeadlineCoverage(benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(h.AvgDetectionLoss, "avg-det-loss-%")
		b.ReportMetric(h.MaxDetectionLoss, "max-det-loss-%")
	}
}

// BenchmarkFigure8 regenerates a scaled-down Figure 8 fault-injection
// campaign over the paper's 11 benchmarks and reports the ITR detection
// rate (paper: 95.4% average).
func BenchmarkFigure8(b *testing.B) {
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = 10
	cfg.Experiment.WindowCycles = 50_000
	for i := 0; i < b.N; i++ {
		rows, err := new(report.Engine).Figure8(workload.CoverageSuite(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		det := 0.0
		for _, r := range rows {
			det += r.Result.DetectedPct()
		}
		b.ReportMetric(det/float64(len(rows)), "avg-itr-detected-%")
	}
}

// figure8CampaignBench runs a small single-benchmark Figure 8 campaign at
// the given snapshot interval, exact or not, with a serial worker pool,
// isolating the per-injection simulation cost from parallelism.
func figure8CampaignBench(b *testing.B, interval int64, exact bool) {
	prof, err := workload.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = 12
	cfg.Workers = 1
	cfg.Experiment.WindowCycles = 50_000
	cfg.Experiment.SnapshotInterval = interval
	cfg.Experiment.Exact = exact
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fault.RunCampaign("bench", prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DetectedPct(), "itr-detected-%")
		b.ReportMetric(float64(res.Budget.CyclesSimulated)/float64(cfg.Faults), "cycles/injection")
	}
}

// BenchmarkFigure8Campaign measures the fault campaign on the snapshot
// fast path (default interval): injections resume from pilot snapshots and
// compare against golden shadows executed from those snapshots.
func BenchmarkFigure8Campaign(b *testing.B) { figure8CampaignBench(b, 0, false) }

// BenchmarkFigure8CampaignCold is the same campaign with snapshots disabled
// on the exact path — every run simulates its whole window from cycle 0, as
// before snapshots and decided outcomes — kept as the speedup reference.
// Results are bit-identical to the fast path.
func BenchmarkFigure8CampaignCold(b *testing.B) { figure8CampaignBench(b, -1, true) }

// BenchmarkCampaignArenaReuse measures campaign allocation behavior: each
// injection worker recycles its observe/verify machines through a run arena
// (restore-into-place instead of rebuilding), so allocs/op should stay within
// a small multiple of the pilot + snapshot cost rather than scaling with the
// per-injection machine construction it replaced.
func BenchmarkCampaignArenaReuse(b *testing.B) {
	prof, err := workload.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = 24
	cfg.Workers = 1
	cfg.Experiment.WindowCycles = 20_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fault.RunCampaign("bench", prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Total), "injections")
	}
}

// snapshotBenchCPU builds a pipeline over a store loop striding across 64
// memory pages and runs it to a mid-window point. The synthetic SPEC
// workloads concentrate their data accesses in a single page, which would
// hide the memory side of snapshot cost entirely; the stride loop gives
// captures and restores a footprint where page handling is visible.
func snapshotBenchCPU(b *testing.B) *pipeline.CPU {
	b.Helper()
	const pages = 64
	pb := program.NewBuilder("stride")
	pb.LoadImm64(2, 0xabcd)
	pb.Label("outer")
	pb.LoadImm64(1, 0)     // r1: store pointer
	pb.LoadImm64(3, pages) // r3: pages left this sweep
	pb.Label("loop")
	pb.Store(isa.OpSd, 2, 1, 0) // dirty the page under r1
	pb.OpImm(isa.OpAddi, 1, 1, 4096)
	pb.OpImm(isa.OpAddi, 3, 3, -1)
	pb.Branch(isa.OpBne, 3, 0, "loop")
	pb.Jump("outer")
	pb.Halt() // unreachable; the run is budget-bound
	prog, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := pipeline.New(prog, pipeline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cpu.Run(30_000)
	return cpu
}

// BenchmarkSnapshotCapture measures Snapshot() itself. Memory capture is
// copy-on-write, so the cost is one page-table walk with zero page copies and
// allocations scale with the machine-state side (ROB, predictors, ITR cache
// lines), not the memory footprint.
func BenchmarkSnapshotCapture(b *testing.B) {
	cpu := snapshotBenchCPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	var s *pipeline.Snapshot
	for i := 0; i < b.N; i++ {
		s = cpu.Snapshot()
	}
	b.ReportMetric(float64(s.MemPages()), "mem-pages")
}

// BenchmarkSnapshotRestore measures Restore() switching between two
// snapshots of diverged machine states — the campaign's pattern of pointing
// one worker CPU at successive resume points. Each restore adopts the
// snapshot's pages by reference; no page contents are copied.
func BenchmarkSnapshotRestore(b *testing.B) {
	cpu := snapshotBenchCPU(b)
	s1 := cpu.Snapshot()
	cpu.Run(2_000) // diverge so the two snapshots differ
	s2 := cpu.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := s1
		if i&1 == 1 {
			s = s2
		}
		if err := cpu.Restore(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: ITR cache vs redundant I-cache
// fetch energy, scaled to the paper's 200M-instruction windows.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := new(report.Engine).Figure9(workload.Suite(), benchBudget, 200_000_000)
		if err != nil {
			b.Fatal(err)
		}
		var itrMJ, redMJ float64
		for _, r := range rows {
			itrMJ += r.ITRSinglePort
			redMJ += r.ICacheRedFetch
		}
		// The paper's claim: the ITR approach is far more energy
		// efficient than fetching twice.
		b.ReportMetric(redMJ/itrMJ, "icache-vs-itr-energy-x")
	}
}

// BenchmarkAreaComparison regenerates the Section 5 area argument.
func BenchmarkAreaComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp := energy.CompareAreas()
		b.ReportMetric(cmp.Ratio, "iunit-vs-itr-area-x")
	}
}

// BenchmarkAblationCheckedLRU compares plain LRU against the Section 2.3
// checked-first replacement optimization on the worst-case benchmark.
func BenchmarkAblationCheckedLRU(b *testing.B) {
	prof, err := workload.ByName("vortex")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base := core.Config{Entries: 1024, Assoc: 2, Replacement: cache.ReplLRU}
		opt := core.Config{Entries: 1024, Assoc: 2, Replacement: cache.ReplCheckedLRU}
		cells, err := new(report.Engine).CoverageSweepWarm([]workload.Profile{prof}, []core.Config{base, opt}, benchBudget, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].Result.DetectionLoss, "lru-det-loss-%")
		b.ReportMetric(cells[1].Result.DetectionLoss, "checkedlru-det-loss-%")
	}
}

// BenchmarkAblationMissFallback measures the Section 3 hybrid: redundant
// fetch on ITR misses restores recovery coverage at a frontend-energy cost.
func BenchmarkAblationMissFallback(b *testing.B) {
	prof, err := workload.ByName("vortex")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base := core.DefaultConfig()
		fb := base
		fb.MissFallback = true
		cells, err := new(report.Engine).CoverageSweepWarm([]workload.Profile{prof}, []core.Config{base, fb}, benchBudget, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].Result.RecoveryLoss, "base-rec-loss-%")
		b.ReportMetric(cells[1].Result.RecoveryLoss, "fallback-rec-loss-%")
		b.ReportMetric(float64(cells[1].Result.FallbackInsts), "refetched-insts")
	}
}

// ---- simulator microbenchmarks ----

// BenchmarkSignatureAccumulate measures ITR signature generation throughput.
func BenchmarkSignatureAccumulate(b *testing.B) {
	words := make([]uint64, 16)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ReportAllocs()
	var acc sig.Accumulator
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, w := range words {
			acc.Add(w)
		}
	}
	if acc.Len() != 16 {
		b.Fatal("accumulator broken")
	}
}

// BenchmarkITRCacheAccess measures the ITR cache hit path.
func BenchmarkITRCacheAccess(b *testing.B) {
	c := cache.MustNew(1024, 2, cache.ReplLRU)
	for pc := uint64(0); pc < 512; pc++ {
		c.Insert(pc*8, pc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i%512) * 8)
	}
}

// BenchmarkTraceFormation measures the decode-side trace former.
func BenchmarkTraceFormation(b *testing.B) {
	w1 := isa.Decode(isa.Instruction{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3}).Pack()
	w2 := isa.Decode(isa.Instruction{Op: isa.OpBne, Rs1: 1, Imm: 100}).Pack()
	var f trace.Former
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.StepTerm(uint64(i*2), w1) {
			f.Take()
		}
		if f.StepTerm(uint64(i*2+1), w2) {
			f.Take()
		}
	}
}

// BenchmarkFunctionalExec measures functional instruction execution.
func BenchmarkFunctionalExec(b *testing.B) {
	st := isa.NewArchState()
	st.R[1], st.R[2] = 7, 9
	d := isa.Decode(isa.Instruction{Op: isa.OpAdd, Rd: 3, Rs1: 1, Rs2: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := st.Exec(d, uint64(i))
		st.Apply(o)
	}
}

// BenchmarkPipelineCycle measures the pipeline's cost per simulated cycle on
// a real benchmark program. The machine is warmed up before the timer
// starts, then runs b.N cycles in fixed-length chunks, each timed on its
// own; ns/op is the fastest chunk's ns/cycle. The work is deterministic and
// allocation-free, so host load can only slow a chunk: over 30 runs on a
// shared 2-vCPU host the fastest chunk stayed within 322–377 ns/cycle while
// the median chunk ranged over 458–921.
func BenchmarkPipelineCycle(b *testing.B) {
	const warmCycles, chunkCycles = 100_000, 5_000
	prof, err := workload.ByName("gap")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := pipeline.New(prog, pipeline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cpu.Run(warmCycles)
	nsPerCycle := make([]float64, (b.N+chunkCycles-1)/chunkCycles)
	var res pipeline.Result
	b.ReportAllocs()
	b.ResetTimer()
	for r := range nsPerCycle {
		n := min(chunkCycles, b.N-r*chunkCycles)
		start := time.Now()
		res = cpu.Run(int64(n))
		nsPerCycle[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
		if res.Termination != pipeline.TermBudget {
			b.Fatalf("run ended early (%v)", res.Termination)
		}
	}
	b.StopTimer()
	b.ReportMetric(slices.Min(nsPerCycle), "ns/op")
	b.ReportMetric(res.IPC(), "ipc")
}

// BenchmarkDetectorOverhead measures per-cycle pipeline cost under each
// detection backend against a detector-off machine, so the price of each
// backend's work behind the core.Detector interface is visible side by side.
// The four machines are built and warmed up alike before the timer starts,
// then run in rounds of one fixed-length chunk each (rotating which goes
// first), so host drift lands on every backend instead of on whichever one
// happened to run during it. b.N is the cycle count each machine runs, so
// ns/op is the sum of the four per-cycle costs. The reported metrics are
// medians over rounds — each backend's ns/cycle and each detector's overhead
// over off within a round — so a burst of host load that hits a few chunks
// does not move them.
func BenchmarkDetectorOverhead(b *testing.B) {
	const warmCycles, chunkCycles = 100_000, 5_000
	prof, err := workload.ByName("gap")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	backends := []string{"off", "itr", "reptfd", "dme"}
	cpus := make([]*pipeline.CPU, len(backends))
	rounds := (b.N + chunkCycles - 1) / chunkCycles
	nsPerCycle := make([][]float64, len(backends)) // [backend][round]
	for i, name := range backends {
		cfg := pipeline.DefaultConfig()
		cfg.ITREnabled = name != "off"
		if cfg.ITREnabled {
			cfg.Detector = name
		}
		if cpus[i], err = pipeline.New(prog, cfg); err != nil {
			b.Fatal(err)
		}
		cpus[i].Run(warmCycles)
		nsPerCycle[i] = make([]float64, rounds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		n := min(chunkCycles, b.N-r*chunkCycles)
		for j := range cpus {
			i := (j + r) % len(cpus)
			start := time.Now()
			res := cpus[i].Run(int64(n))
			nsPerCycle[i][r] = float64(time.Since(start).Nanoseconds()) / float64(n)
			if res.Termination != pipeline.TermBudget {
				b.Fatalf("%s: run ended early (%v)", backends[i], res.Termination)
			}
		}
	}
	b.StopTimer()
	median := func(v []float64) float64 {
		v = slices.Clone(v)
		slices.Sort(v)
		return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
	}
	overhead := make([]float64, rounds)
	for i, name := range backends {
		b.ReportMetric(median(nsPerCycle[i]), name+"-ns/cycle")
		if i > 0 {
			for r := range overhead {
				overhead[r] = 100 * (nsPerCycle[i][r]/nsPerCycle[0][r] - 1)
			}
			b.ReportMetric(median(overhead), name+"-overhead-%")
		}
	}
}

// BenchmarkCoverageReplay measures trace-event replay throughput (the inner
// loop of the Figures 6/7 sweep).
func BenchmarkCoverageReplay(b *testing.B) {
	prof, err := workload.ByName("bzip")
	if err != nil {
		b.Fatal(err)
	}
	events, err := workload.CachedEvents(prof, 200_000)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := core.NewCoverageSim(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Access(events[i%len(events)])
	}
}

// BenchmarkWorkloadSynthesis measures benchmark program generation
// (including the Table 1 calibration loop).
func BenchmarkWorkloadSynthesis(b *testing.B) {
	prof, err := workload.ByName("parser")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := workload.Build(prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultInjectionRun measures one complete injection experiment
// (observe + verify runs, cold, each against its own golden shadow).
func BenchmarkFaultInjectionRun(b *testing.B) {
	prof, err := workload.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	oracle := fault.NewSigOracle(prog)
	cfg := fault.DefaultConfig()
	cfg.WindowCycles = 20_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.RunOne(prog, oracle, cfg, fault.Injection{DecodeIndex: 2000 + int64(i%1000), Bit: i % 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- extension benchmarks ----

// BenchmarkCheckpointRecovery measures the Section 2.3 extension end to end:
// a fault installs a corrupted signature on an ITR miss; without
// checkpointing the machine check aborts, with it the run rolls back and
// completes.
func BenchmarkCheckpointRecovery(b *testing.B) {
	prof, err := workload.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	oracle := fault.NewSigOracle(prog)
	cfg := fault.DefaultConfig()
	cfg.WindowCycles = 30_000
	cfg.Checkpoint = true
	recovered := 0
	for i := 0; i < b.N; i++ {
		det, err := fault.RunOne(prog, oracle, cfg, fault.Injection{DecodeIndex: 2000 + int64(i%500), Bit: 42})
		if err != nil {
			b.Fatal(err)
		}
		if det.CheckpointRecovered {
			recovered++
		}
	}
	b.ReportMetric(float64(recovered), "ckpt-recoveries")
}

// BenchmarkRenameProtection measures the rename-unit protection study: the
// silent-corruption rate without the rename-signature extension and the
// detection rate with it.
func BenchmarkRenameProtection(b *testing.B) {
	prof, err := workload.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fault.DefaultConfig()
	cfg.WindowCycles = 30_000
	for i := 0; i < b.N; i++ {
		res, err := fault.RunRenameCampaign(prog, cfg, 6, 0x42+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SDCWithoutPct(), "sdc-without-ext-%")
		b.ReportMetric(res.DetectedPct(), "detected-with-ext-%")
	}
}

// BenchmarkPCFaults runs the Section 2.5 PC-fault study.
func BenchmarkPCFaults(b *testing.B) {
	prof, err := workload.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fault.DefaultConfig()
	cfg.WindowCycles = 30_000
	for i := 0; i < b.N; i++ {
		res, err := fault.RunPCFaultCampaign(prog, cfg, 8, 0x9+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pct(fault.PCDetectedITR), "itr-detected-%")
	}
}

// BenchmarkCacheFaults runs the Section 2.4 ITR-cache fault study with
// parity protection on.
func BenchmarkCacheFaults(b *testing.B) {
	prof, err := workload.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fault.DefaultConfig()
	cfg.WindowCycles = 30_000
	for i := 0; i < b.N; i++ {
		res, err := fault.RunCacheFaultCampaign(prog, cfg, true, 4, 0x3+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Counts[fault.CacheParityRepaired]), "parity-repairs")
	}
}

// ---- performance-architecture benchmarks (decode memoization + sweep engine) ----

// benchProgram returns the memoized gap program for the decode benchmarks.
func benchProgram(b *testing.B) *program.Program {
	b.Helper()
	prof, err := workload.ByName("gap")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkDecodeFull measures the unmemoized per-instruction cost the hot
// loop used to pay: a full decode plus a signal-word pack.
func BenchmarkDecodeFull(b *testing.B) {
	prog := benchProgram(b)
	n := uint64(len(prog.Insts))
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= isa.Decode(prog.Fetch(uint64(i) % n)).Pack()
	}
	_ = sink
}

// BenchmarkDecodeMemoized measures the DecodeTable fast path that replaces
// it: one array index per dynamic instruction.
func BenchmarkDecodeMemoized(b *testing.B) {
	prog := benchProgram(b)
	tab := prog.DecodeTable()
	n := uint64(tab.Len())
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= tab.Word(uint64(i) % n)
	}
	_ = sink
}

// BenchmarkCleanExec measures one fault-free instruction of the gap
// program on the paths that dispatch and the commit shadows take: the
// clean-word kernel, and ExecInto on the table's signals plus ApplyRef,
// which the kernel replaces on clean words.
func BenchmarkCleanExec(b *testing.B) {
	prog := benchProgram(b)
	tab := prog.DecodeTable()
	b.Run("kernel", func(b *testing.B) {
		st := &isa.ArchState{Mem: isa.NewMemory(), PC: prog.Entry}
		var o isa.Outcome
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if st.ExecClean(&o, tab.Word(st.PC), st.PC); o.Halt {
				st.PC = prog.Entry
			}
		}
	})
	b.Run("execinto", func(b *testing.B) {
		st := &isa.ArchState{Mem: isa.NewMemory(), PC: prog.Entry}
		var o isa.Outcome
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.ExecInto(&o, tab.Signals(st.PC), st.PC)
			if st.ApplyRef(&o); o.Halt {
				st.PC = prog.Entry
			}
		}
	})
}

// BenchmarkTraceRecords measures the one-time trace-record build a program's
// first trace stream pays: gcc's image (the suite's largest) predecoded in
// one backward pass, reported per static instruction as ns/inst. It
// allocates the record array and nothing else.
func BenchmarkTraceRecords(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.CachedProgram(prof)
	if err != nil {
		b.Fatal(err)
	}
	_, words := prog.DecodeTable().Records()
	image := words[:prog.Len()]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		isa.TraceRecords(image)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(image)), "ns/inst")
}

// BenchmarkTraceStream measures end-to-end functional execution with trace
// formation — the event-generation phase of every sweep — over 200,000
// dynamic instructions per op, and reports the per-instruction cost as
// ns/inst.
func BenchmarkTraceStream(b *testing.B) {
	prog := benchProgram(b)
	insts := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := 0
		insts += trace.Stream(prog, 200_000, func(trace.Event) bool {
			events++
			return true
		})
		if events == 0 {
			b.Fatal("no trace events")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// BenchmarkCoverageSweepSinglePass is the production sweep path, pinned to
// one worker: each benchmark's stream is generated block by block and fanned
// out to all 18 configurations through a core.SimBank, so every op includes
// stream generation. Cells are bit-identical to a per-cell replay
// (TestSweepSinglePassMatchesPerCell).
func BenchmarkCoverageSweepSinglePass(b *testing.B) {
	eng := &report.Engine{Workers: 1}
	for _, p := range workload.Suite() {
		if _, err := workload.CachedProgram(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := eng.CoverageSweepWarm(workload.Suite(), core.DesignSpace(), benchBudget, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != len(workload.Suite())*len(core.DesignSpace()) {
			b.Fatalf("sweep returned %d cells", len(cells))
		}
	}
}

// BenchmarkPerfComparison measures the Section 5 performance argument: the
// IPC cost of each frontend-protection scheme on the cycle-level core.
func BenchmarkPerfComparison(b *testing.B) {
	profiles := []workload.Profile{}
	for _, name := range []string{"gap", "swim"} {
		p, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	for i := 0; i < b.N; i++ {
		rows, err := new(report.Engine).PerfComparison(profiles, 60_000)
		if err != nil {
			b.Fatal(err)
		}
		slow := 0.0
		for _, r := range rows {
			slow += 100 * (1 - r.TimeRedundantIPC/r.BaseIPC)
		}
		b.ReportMetric(slow/float64(len(rows)), "time-redundant-slowdown-%")
	}
}
