package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"itr/internal/core"
	"itr/internal/detect"
	"itr/internal/experiment"
	"itr/internal/fault"
	"itr/internal/obs"
	"itr/internal/pipeline"
	"itr/internal/report"
	"itr/internal/trace"
	"itr/internal/workload"
)

// The traced run redoes each workload's specs as direct calls into the
// layers' public functions, with a span around every call. It adds nothing
// inside the layers; the one in-layer hook it reads is the campaign's
// existing CampaignConfig.Tracer.

// tracedRecord is what a traced child reports.
type tracedRecord struct {
	// ArtifactS sums the spans that redo an untraced sample's work; the
	// other spans are probes that only the traced run makes.
	ArtifactS float64            `json:"artifact_s"`
	BuildS    float64            `json:"build_s"`
	Programs  int                `json:"programs"`
	Metrics   map[string]float64 `json:"metrics"`
	Spans     []span             `json:"spans"`
	Errors    []string           `json:"errors,omitempty"`
}

// layerRun is one traced pass of a workload.
type layerRun struct {
	rec      *recorder
	root     int
	m        map[string]float64
	artifact time.Duration
}

// tracedWorkloads decomposes each workload into layer calls.
var tracedWorkloads = map[string]func(*layerRun, workloadDef, uint64) error{
	"fig8":            traceFig8,
	"trace-artifacts": traceArtifacts,
	"pipeline-runs":   tracePipelineRuns,
	"cold-studies":    traceColdStudies,
}

// runTraced makes one traced pass of w in this process.
func runTraced(w workloadDef, seed uint64) tracedRecord {
	l := &layerRun{rec: newRecorder(), m: make(map[string]float64)}
	out := tracedRecord{}
	l.root = l.rec.open(w.Name, 0)
	err := func() error {
		fn := tracedWorkloads[w.Name]
		if fn == nil {
			return fmt.Errorf("workload %s has no traced decomposition", w.Name)
		}
		var n int
		var err error
		d, _ := l.rec.do("workload.build", l.root, func() error {
			n, _, err = buildPrograms(w)
			return err
		})
		if err != nil {
			return err
		}
		out.BuildS, out.Programs = d.Seconds(), n
		return fn(l, w, seed)
	}()
	l.rec.close(l.root)
	if err != nil {
		out.Errors = append(out.Errors, err.Error())
	}
	out.ArtifactS = l.artifact.Seconds()
	out.Metrics = l.m
	out.Spans = l.rec.spans
	return out
}

// call times fn as a span under the workload root. Artifact calls count
// toward ArtifactS.
func (l *layerRun) call(name string, artifact bool, fn func() error) (time.Duration, error) {
	d, err := l.rec.do(name, l.root, fn)
	if artifact {
		l.artifact += d
	}
	return d, err
}

// ---- fig8 ----

// snapshotCalls is how many Snapshot and Restore calls are timed on each
// benchmark's machine.
const snapshotCalls = 200

func traceFig8(l *layerRun, w workloadDef, seed uint64) error {
	s, err := onlySpec(w, "fault")
	if err != nil {
		return err
	}
	s = seeded(s, seed)
	profiles, err := specProfiles(s)
	if err != nil {
		return err
	}
	cfg := campaignConfig(s)
	probe := &pipeline.Probe{}
	cfg.Experiment.Pipeline.Probe = probe

	heap := startHeapSampler(20 * time.Millisecond)
	ct, err := l.campaigns(profiles, cfg)
	l.m["fault.heap_peak_mib"] = float64(heap.stop()) / (1 << 20)
	if err != nil {
		return err
	}
	l.artifact += ct.campaign
	l.m["fault.campaign_s"] = ct.campaign.Seconds()
	l.m["fault.pilot_s"] = ct.pilot.Seconds()
	l.m["fault.inject_phase_s"] = ct.inject.Seconds()
	var busy time.Duration
	for _, d := range ct.byGroup {
		busy += d
	}
	l.m["fault.pool_busy_frac"] = float64(busy) / (float64(ct.inject) * float64(ct.workers))
	l.m["fault.inject_us_p50"] = micros(quantileDuration(ct.injections, 0.50))
	l.m["fault.inject_us_p99"] = micros(quantileDuration(ct.injections, 0.99))

	var bud fault.Budget
	count := make(map[string]int)
	simulated := make(map[string]int64)
	var detected float64
	for _, res := range ct.results {
		bud.CyclesSimulated += res.Budget.CyclesSimulated
		bud.DecidedEarly += res.Budget.DecidedEarly
		bud.VerifyForked += res.Budget.VerifyForked
		bud.ProofFallbacks += res.Budget.ProofFallbacks
		for cat, n := range res.Counts {
			count[classGroup(cat)] += n
		}
		for cat, cb := range res.Budget.ByClass {
			simulated[classGroup(cat)] += cb.Simulated
		}
		detected += res.DetectedPct()
	}
	total := float64(len(ct.injections))
	l.m["fault.cycles_per_injection"] = float64(bud.CyclesSimulated) / total
	for _, g := range classGroups {
		l.m["fault.inject_s."+g] = ct.byGroup[g].Seconds()
		l.m["fault.cycles_per_injection."+g] = float64(simulated[g]) / float64(max(count[g], 1))
	}
	l.m["fault.decided_early_frac"] = float64(bud.DecidedEarly) / total
	l.m["fault.verify_forked_frac"] = float64(bud.VerifyForked) / total
	l.m["fault.proof_fallbacks"] = float64(bud.ProofFallbacks)
	// The paper reports 95.4% of injections detected by ITR on average.
	l.m["fault.paper_err_pp"] = math.Abs(detected/float64(len(ct.results)) - 95.4)
	l.m["pipeline.snapshot_captures"] = float64(probe.SnapshotCaptures.Load())
	l.m["pipeline.snapshot_restores"] = float64(probe.SnapshotRestores.Load())
	l.m["pipeline.pages_copied"] = float64(probe.SnapshotPagesCopied.Load())

	// Probes: the pilot's machine work without its snapshots, then the
	// snapshot and restore calls the pilot and workers make.
	pcfg := cfg.Experiment.Pipeline
	pcfg.Probe = nil
	pcfg.ITREnabled = true
	pcfg.ITR = cfg.Experiment.ITR
	pcfg.ITRMode = core.ModeObserve
	var straight time.Duration
	var snapD, restD []time.Duration
	for _, p := range profiles {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			return err
		}
		var cpu *pipeline.CPU
		d, err := l.call("pipeline.straight "+p.Name, false, func() error {
			var err error
			if cpu, err = pipeline.New(prog, pcfg); err == nil {
				cpu.Run(cfg.Experiment.WindowCycles)
			}
			return err
		})
		if err != nil {
			return err
		}
		straight += d
		if _, err := l.call("pipeline.snapshot_restore "+p.Name, false, func() error {
			var snap *pipeline.Snapshot
			for i := 0; i < snapshotCalls; i++ {
				start := time.Now()
				snap = cpu.Snapshot()
				snapD = append(snapD, time.Since(start))
			}
			for i := 0; i < snapshotCalls; i++ {
				start := time.Now()
				if err := cpu.Restore(snap); err != nil {
					return err
				}
				restD = append(restD, time.Since(start))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	l.m["pipeline.straight_s"] = straight.Seconds()
	l.m["fault.pilot_overhead_s"] = (ct.pilot - straight).Seconds()
	l.m["pipeline.snapshot_us"] = micros(quantileDuration(snapD, 0.5))
	l.m["pipeline.restore_us"] = micros(quantileDuration(restD, 0.5))
	return nil
}

// classGroups are the outcome groups injection time is split into: the two
// classes every campaign has plenty of, and the rare rest together, so no
// group is empty on any seed.
var classGroups = []string{"itr_mask", "itr_sdc_r", "other"}

func classGroup(c fault.Category) string {
	switch c {
	case fault.ITRMask:
		return "itr_mask"
	case fault.ITRSDCR:
		return "itr_sdc_r"
	}
	return "other"
}

// campaignConfig is the configuration `itr fault` builds from a spec.
func campaignConfig(s experiment.Spec) fault.CampaignConfig {
	cfg := fault.DefaultCampaignConfig()
	cfg.Faults = s.Campaign.Faults
	cfg.Seed = s.Seed
	cfg.Workers = s.Workers
	cfg.Experiment.WindowCycles = s.Campaign.Window
	cfg.Experiment.Verify = !s.Campaign.NoVerify
	cfg.Experiment.Checkpoint = s.Campaign.Checkpoint
	cfg.Experiment.SnapshotInterval = s.Campaign.SnapshotInterval
	cfg.Experiment.Exact = s.Campaign.Exact
	cfg.Experiment.Pipeline.Detector = s.Detector
	return cfg
}

// ringCap is the per-ring event capacity of a campaign's tracer: enough that
// no worker ring wraps during one campaign, which campaigns check.
const ringCap = 1 << 15

// campaignTrace accumulates traced Figure 8 campaigns.
type campaignTrace struct {
	results                 []fault.CampaignResult
	workers                 int
	campaign, pilot, inject time.Duration
	injections              []time.Duration
	byGroup                 map[string]time.Duration
}

// campaigns runs one traced campaign per profile. Each campaign span is
// split at its first EvInjectStart into the pilot and the injection phase,
// and every injection becomes a span named by its outcome class.
func (l *layerRun) campaigns(profiles []workload.Profile, cfg fault.CampaignConfig) (campaignTrace, error) {
	ct := campaignTrace{workers: cfg.Workers, byGroup: make(map[string]time.Duration)}
	if ct.workers <= 0 {
		ct.workers = runtime.GOMAXPROCS(0)
	}
	ct.workers = min(ct.workers, cfg.Faults)
	for _, p := range profiles {
		prog, err := workload.CachedProgram(p)
		if err != nil {
			return ct, err
		}
		cfg.Tracer = obs.NewTracer(ringCap)
		offset := l.rec.now()
		cid := l.rec.open("fault.campaign "+p.Name, l.root)
		res, err := fault.RunCampaign(p.Name, prog, cfg)
		d := l.rec.close(cid)
		if err != nil {
			return ct, err
		}
		rings := make([][]obs.Event, ct.workers)
		for w := range rings {
			r := cfg.Tracer.Ring(fmt.Sprintf("fault-worker-%d", w))
			if r.Dropped() > 0 {
				return ct, fmt.Errorf("%s: worker %d ring dropped %d events", p.Name, w, r.Dropped())
			}
			rings[w] = r.Events()
		}
		injs, err := pairInjections(rings, offset)
		if err != nil {
			return ct, fmt.Errorf("%s: %w", p.Name, err)
		}
		if len(injs) != res.Total {
			return ct, fmt.Errorf("%s: %d injection spans for %d injections", p.Name, len(injs), res.Total)
		}
		cats, err := injectionClasses(injs, res.Details)
		if err != nil {
			return ct, fmt.Errorf("%s: %w", p.Name, err)
		}
		c := l.rec.spans[cid-1]
		first := c.End
		for _, in := range injs {
			first = min(first, in.Start)
		}
		l.rec.add(span{Parent: cid, Name: "fault.pilot", Start: c.Start, End: first})
		phase := l.rec.add(span{Parent: cid, Name: "fault.inject_phase", Start: first, End: c.End})
		for i, in := range injs {
			l.rec.add(span{Parent: phase, Name: "fault.inject " + string(cats[i]), Lane: 1 + in.Worker, Start: in.Start, End: in.End})
			ct.injections = append(ct.injections, in.End-in.Start)
		}
		for g, d := range classSums(injs, cats) {
			ct.byGroup[g] += d
		}
		ct.campaign += d
		ct.pilot += first - c.Start
		ct.inject += c.End - first
		ct.results = append(ct.results, res)
	}
	return ct, nil
}

// injectionClasses joins injection spans to their campaign's Details by
// (decode index, bit) and returns each span's outcome class.
func injectionClasses(injs []injSpan, details []fault.Detail) ([]fault.Category, error) {
	byKey := make(map[injKey]fault.Category, len(details))
	for _, d := range details {
		byKey[injKey{d.Injection.DecodeIndex, d.Injection.Bit}] = d.Category
	}
	cats := make([]fault.Category, len(injs))
	for i, in := range injs {
		cat, ok := byKey[in.Key]
		if !ok {
			return nil, fmt.Errorf("injection %+v has no detail", in.Key)
		}
		cats[i] = cat
	}
	return cats, nil
}

// classSums adds up injection span time per class group.
func classSums(injs []injSpan, cats []fault.Category) map[string]time.Duration {
	sums := make(map[string]time.Duration)
	for i, in := range injs {
		sums[classGroup(cats[i])] += in.End - in.Start
	}
	return sums
}

// ---- trace-artifacts ----

func traceArtifacts(l *layerRun, w workloadDef, seed uint64) error {
	probe := &report.Probe{}
	var busy busyTime
	var poolTime float64 // span seconds times pool width
	var cov *experiment.Spec
	heap0 := heapInuse()
	for _, bs := range w.Specs {
		s := seeded(bs.Spec, seed)
		rep := &report.Engine{Workers: s.Workers, OnItem: busy.add, Probe: probe}
		var d time.Duration
		var err error
		switch s.Kind {
		case "char":
			d, err = l.char(rep, s)
			l.m["report.char_s"] += d.Seconds()
		case "coverage":
			if s.Coverage.Headline || s.Coverage.Ablation {
				return fmt.Errorf("%s: only the full coverage sweep is traced", bs.File)
			}
			profiles, perr := specProfiles(s)
			if perr != nil {
				return perr
			}
			d, err = l.call("report.sweep", true, func() error {
				_, err := rep.CoverageSweepWarm(profiles, core.DesignSpace(), s.Budget, s.Warmup)
				return err
			})
			l.m["report.sweep_s"] += d.Seconds()
			cov = &s
		case "energy":
			var perf time.Duration
			d, perf, err = l.energy(rep, s)
			l.m["report.figure9_s"] += d.Seconds()
			d += perf
		default:
			return fmt.Errorf("%s: kind %s is not traced in this workload", bs.File, s.Kind)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", bs.File, err)
		}
		poolTime += d.Seconds() * float64(resolveWorkers(s.Workers))
	}
	l.m["workload.memo_mib"] = float64(int64(heapInuse())-int64(heap0)) / (1 << 20)
	l.m["report.pool_busy_frac"] = busy.d.Seconds() / poolTime // the pools have exited
	l.m["workload.stream_gens"] = float64(probe.StreamsGenerated.Load())
	l.m["core.events_replayed"] = float64(probe.EventsReplayed.Load())
	if cov == nil {
		return fmt.Errorf("workload %s has no coverage spec to probe trace formation with", w.Name)
	}

	// Probes on the coverage sweep's benchmarks: trace formation alone, and
	// the sweep bank fed from the memoized streams.
	profiles, err := specProfiles(*cov)
	if err != nil {
		return err
	}
	var insts, events int64
	d, err := l.call("trace.stream", false, func() error {
		for _, p := range profiles {
			prog, err := workload.CachedProgram(p)
			if err != nil {
				return err
			}
			insts += trace.Stream(prog, p.ScaledBudget(cov.Budget), func(trace.Event) bool { return true })
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["trace.ns_per_inst"] = float64(d.Nanoseconds()) / float64(insts)
	d, err = l.call("core.simbank", false, func() error {
		for _, p := range profiles {
			evs, err := workload.CachedEvents(p, p.ScaledBudget(cov.Budget)+cov.Warmup)
			if err != nil {
				return err
			}
			bank, err := core.NewSimBank(core.DesignSpace(), cov.Warmup)
			if err != nil {
				return err
			}
			bank.FeedBlock(evs)
			bank.Results()
			events += int64(len(evs))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["core.simbank_ns_per_event"] = float64(d.Nanoseconds()) / float64(events)
	return nil
}

// char redoes `itr char` (Figures 1-4 and Table 1) as five report calls.
func (l *layerRun) char(rep *report.Engine, s experiment.Spec) (time.Duration, error) {
	if s.Char.Fig != 0 || s.Char.Table1 {
		return 0, fmt.Errorf("only the full characterization is traced")
	}
	calls := []struct {
		name string
		fn   func() error
	}{
		{"report.figure1", func() error {
			_, err := rep.PopularityFigure(workload.IntSuite(), 100, 1000, s.Budget)
			return err
		}},
		{"report.figure2", func() error {
			_, err := rep.PopularityFigure(workload.FPSuite(), 50, 500, s.Budget)
			return err
		}},
		{"report.figure3", func() error {
			_, err := rep.DistanceFigure(workload.IntSuite(), s.Budget)
			return err
		}},
		{"report.figure4", func() error {
			_, err := rep.DistanceFigure(workload.FPSuite(), s.Budget)
			return err
		}},
		{"report.table1", func() error {
			_, err := rep.Table1(s.Budget)
			return err
		}},
	}
	id := l.rec.open("report.char", l.root)
	for _, c := range calls {
		if _, err := l.rec.do(c.name, id, c.fn); err != nil {
			l.rec.close(id)
			return 0, err
		}
	}
	d := l.rec.close(id)
	l.artifact += d
	return d, nil
}

// energy redoes `itr energy`: Figure 9, then the perf comparison when the
// spec asks for it.
func (l *layerRun) energy(rep *report.Engine, s experiment.Spec) (figure9, perf time.Duration, err error) {
	if s.Energy.Baselines {
		return 0, 0, fmt.Errorf("the energy baselines table is not traced")
	}
	scale := max(s.Energy.Scale, 0)
	figure9, err = l.call("report.figure9", true, func() error {
		_, err := rep.Figure9(workload.Suite(), s.Budget, scale)
		return err
	})
	if err != nil || !s.Energy.Perf {
		return figure9, 0, err
	}
	perf, err = l.call("report.perf", true, func() error {
		_, err := rep.PerfComparison(workload.Suite(), s.Energy.PerfCycles)
		return err
	})
	return figure9, perf, err
}

// ---- pipeline-runs ----

func tracePipelineRuns(l *layerRun, w workloadDef, seed uint64) error {
	nsPerCycle := make(map[string]float64)
	var news []time.Duration
	for _, bs := range w.Specs {
		s := seeded(bs.Spec, seed)
		switch s.Kind {
		case "sim":
			if s.Sim.Asm != "" || s.Sim.Profile != "" || s.Sim.Inject != 0 || s.Sim.PrintSignals {
				return fmt.Errorf("%s: only plain benchmark sims are traced", bs.File)
			}
			name := s.Bench + "-" + detect.Canonical(s.Detector)
			if s.Sim.NoITR {
				name = s.Bench + "-off"
			}
			p, err := workload.ByName(s.Bench)
			if err != nil {
				return err
			}
			prog, err := workload.CachedProgram(p)
			if err != nil {
				return err
			}
			cfg := pipeline.DefaultConfig()
			cfg.ITREnabled = !s.Sim.NoITR
			cfg.Detector = s.Detector
			var cpu *pipeline.CPU
			dNew, err := l.call("pipeline.new "+name, true, func() error {
				var err error
				cpu, err = pipeline.New(prog, cfg)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", bs.File, err)
			}
			var res pipeline.Result
			dRun, _ := l.call("pipeline.run "+name, true, func() error {
				res = cpu.Run(s.Sim.Cycles)
				return nil
			})
			news = append(news, dNew)
			nsPerCycle[name] = float64(dRun.Nanoseconds()) / float64(res.Cycles)
			l.m["pipeline.ns_per_cycle."+name] = nsPerCycle[name]
			if name == "gcc-itr" {
				l.m["pipeline.ipc.gcc-itr"] = res.IPC()
			}
		case "energy":
			_, perf, err := l.energy(&report.Engine{Workers: s.Workers}, s)
			if err != nil {
				return fmt.Errorf("%s: %w", bs.File, err)
			}
			l.m["report.perf_s"] = perf.Seconds()
		default:
			return fmt.Errorf("%s: kind %s is not traced in this workload", bs.File, s.Kind)
		}
	}
	off, ok := nsPerCycle["gcc-off"]
	if !ok {
		return fmt.Errorf("workload %s has no gcc-off sim to measure detector overhead against", w.Name)
	}
	for name, ns := range nsPerCycle {
		backend, ok := strings.CutPrefix(name, "gcc-")
		if ok && backend != "off" {
			l.m["detect.overhead_pct."+backend] = 100 * (ns/off - 1)
		}
	}
	l.m["pipeline.new_us"] = micros(quantileDuration(news, 0.5))
	return nil
}

// ---- cold-studies ----

// runOneCalls is how many cold fault.RunOne calls are timed.
const runOneCalls = 3

func traceColdStudies(l *layerRun, w workloadDef, seed uint64) error {
	s, err := onlySpec(w, "fault")
	if err != nil {
		return err
	}
	s = seeded(s, seed)
	c := s.Campaign
	if s.Bench == "" || c.PCFaults <= 0 || c.CacheFaults <= 0 || c.RenameFaults <= 0 {
		return fmt.Errorf("workload %s needs one benchmark and all three side studies", w.Name)
	}
	profiles, err := specProfiles(s)
	if err != nil {
		return err
	}
	cfg := campaignConfig(s)
	ct, err := l.campaigns(profiles, cfg)
	if err != nil {
		return err
	}
	l.artifact += ct.campaign
	res := ct.results[0]
	l.m["fault.ckpt_cycles_per_injection"] = float64(res.Budget.CyclesSimulated) / float64(res.Total)
	l.m["fault.ckpt_inject_us_p50"] = micros(quantileDuration(ct.injections, 0.50))

	prog, err := workload.CachedProgram(profiles[0])
	if err != nil {
		return err
	}
	d, err := l.call("fault.pc_study", true, func() error {
		_, err := fault.RunPCFaultCampaign(prog, cfg.Experiment, c.PCFaults, s.Seed)
		return err
	})
	if err != nil {
		return err
	}
	l.m["fault.pc_ms_per_injection"] = millis(d) / float64(c.PCFaults)
	d, err = l.call("fault.cache_study", true, func() error {
		for _, parity := range []bool{false, true} {
			if _, err := fault.RunCacheFaultCampaign(prog, cfg.Experiment, parity, c.CacheFaults, s.Seed); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["fault.cache_ms_per_injection"] = millis(d) / float64(2*c.CacheFaults)
	d, err = l.call("fault.rename_study", true, func() error {
		_, err := fault.RunRenameCampaign(prog, cfg.Experiment, c.RenameFaults, s.Seed)
		return err
	})
	if err != nil {
		return err
	}
	l.m["fault.rename_ms_per_injection"] = millis(d) / float64(c.RenameFaults)

	// Probe: cold single injections, simulated from cycle 0.
	oracle := fault.NewSigOracle(prog)
	var runOne []time.Duration
	for _, det := range res.Details[:min(runOneCalls, len(res.Details))] {
		d, err := l.call("fault.runone", false, func() error {
			_, err := fault.RunOne(prog, oracle, cfg.Experiment, det.Injection)
			return err
		})
		if err != nil {
			return err
		}
		runOne = append(runOne, d)
	}
	l.m["fault.runone_ms"] = millis(quantileDuration(runOne, 0.5))
	return nil
}

// ---- helpers ----

// onlySpec returns a workload's single spec, which must be of the given kind.
func onlySpec(w workloadDef, kind string) (experiment.Spec, error) {
	if len(w.Specs) != 1 || w.Specs[0].Spec.Kind != kind {
		return experiment.Spec{}, fmt.Errorf("workload %s must be one %s spec", w.Name, kind)
	}
	return w.Specs[0].Spec, nil
}

func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// busyTime sums report work-item durations from pool goroutines.
type busyTime struct {
	mu sync.Mutex
	d  time.Duration
}

func (b *busyTime) add(_ string, d time.Duration) {
	b.mu.Lock()
	b.d += d
	b.mu.Unlock()
}

// heapInuse returns the live heap after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// heapSampler tracks the largest HeapInuse seen while it runs.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			h.peak = max(h.peak, ms.HeapInuse)
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
