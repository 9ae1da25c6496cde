package fault

import (
	"reflect"
	"sync"
	"testing"

	"itr/internal/core"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/stats"
	"itr/internal/workload"
)

// studyPrograms returns the hand-built loop nest and one synthetic benchmark,
// so the identity tests cover both a single hot trace and a realistic mix.
func studyPrograms(t *testing.T) map[string]*program.Program {
	t.Helper()
	prof, err := workload.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	art, err := workload.CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*program.Program{"loop": testProgram(t), "art": art}
}

// TestSideStudiesSnapshotAndWidthIdentical pins the side studies' contract:
// resuming from pilot snapshots, spreading injections over the worker pool
// and deciding runs early are invisible in the results. Each study must
// return a result reflect.DeepEqual to the one recorded from the cold,
// serial, lockstep-reference harness it replaced, at every snapshot setting
// (-1 disables snapshots) and at pool widths 1 and 4.
func TestSideStudiesSnapshotAndWidthIdentical(t *testing.T) {
	type study struct {
		name string
		run  func(*program.Program, CampaignConfig) (any, error)
		want map[string]any // recorded result per program
	}
	studies := []study{
		{"pc", func(p *program.Program, cc CampaignConfig) (any, error) {
			cc.Seed = 0x77
			return RunPCFaultStudy(p, cc, 8)
		}, map[string]any{
			"loop": PCFaultResult{Total: 8, Counts: map[PCOutcome]int{PCDetectedITR: 3, PCMasked: 2, PCDetectedSpc: 3}},
			"art":  PCFaultResult{Total: 8, Counts: map[PCOutcome]int{PCDetectedITR: 5, PCDetectedSpc: 3}},
		}},
		{"cache-no-parity", func(p *program.Program, cc CampaignConfig) (any, error) {
			cc.Seed = 0x5
			return RunCacheFaultStudy(p, cc, false, 6)
		}, map[string]any{
			"loop": CacheFaultResult{Total: 6, Counts: map[CacheFaultOutcome]int{CacheFalseMachineCheck: 5, CacheMasked: 1}},
			"art":  CacheFaultResult{Total: 6, Counts: map[CacheFaultOutcome]int{CacheFalseMachineCheck: 3, CacheMasked: 3}},
		}},
		{"cache-parity", func(p *program.Program, cc CampaignConfig) (any, error) {
			cc.Seed = 0x5
			return RunCacheFaultStudy(p, cc, true, 6)
		}, map[string]any{
			"loop": CacheFaultResult{Total: 6, Counts: map[CacheFaultOutcome]int{CacheParityRepaired: 5, CacheMasked: 1}},
			"art":  CacheFaultResult{Total: 6, Counts: map[CacheFaultOutcome]int{CacheParityRepaired: 3, CacheMasked: 3}},
		}},
		{"rename", func(p *program.Program, cc CampaignConfig) (any, error) {
			cc.Seed = 0x42
			return RunRenameStudy(p, cc, 6)
		}, map[string]any{
			"loop": RenameCampaignResult{Total: 6, SDCWithoutExtension: 4, MaskedWithout: 2,
				DetectedWithExtension: 6, RecoveredWithExtension: 6},
			"art": RenameCampaignResult{Total: 6, SDCWithoutExtension: 2, MaskedWithout: 4,
				DetectedWithExtension: 6, RecoveredWithExtension: 6},
		}},
	}
	for name, p := range studyPrograms(t) {
		for _, st := range studies {
			t.Run(name+"/"+st.name, func(t *testing.T) {
				for _, interval := range []int64{-1, 0, 512} {
					for _, workers := range []int{1, 4} {
						cc := CampaignConfig{Experiment: quickConfig(), Workers: workers}
						cc.Experiment.SnapshotInterval = interval
						got, err := st.run(p, cc)
						if err != nil {
							t.Fatal(err)
						}
						if want := st.want[name]; !reflect.DeepEqual(got, want) {
							t.Errorf("interval %d, workers %d: %+v, want %+v", interval, workers, got, want)
						}
					}
				}
			})
		}
	}
}

// jitterProbes makes runDecided probe after a random 1 to 512 cycles,
// log-uniform so that runs of probes a few cycles apart are common, instead
// of a fixed 512: a settle rule that only holds between the fixed probes
// shows up as an outcome that depends on when the engine asked. It returns
// the function that restores the fixed probe.
func jitterProbes(t *testing.T) func() {
	t.Helper()
	var mu sync.Mutex
	rng := stats.NewRNG(0x9e3779b9)
	fixed := probeCycles
	probeCycles = func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return 1 + int64(rng.Uint64n(1<<rng.Intn(10)))
	}
	return func() { probeCycles = fixed }
}

// TestSideStudiesDecidedMatchExact: deciding side-study runs early changes no
// injection's outcome. On the loop nest and three synthetic benchmarks, over
// several seeds and at every snapshot setting, each study's per-injection
// outcomes with early exits, probed at random intervals, must equal those of
// the same study with Exact set, which simulates every run's whole window
// from cycle 0 (that the exact outcomes do not depend on the snapshot
// setting is TestSideStudiesSnapshotAndWidthIdentical's contract); and the
// decided runs must actually stop early, the exact ones never.
func TestSideStudiesDecidedMatchExact(t *testing.T) {
	progs := studyPrograms(t)
	for _, name := range []string{"vortex", "gcc"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if progs[name], err = workload.CachedProgram(prof); err != nil {
			t.Fatal(err)
		}
	}
	studies := map[string]func(*program.Program, CampaignConfig) (any, error){
		"pc": func(p *program.Program, cc CampaignConfig) (any, error) { return pcOutcomes(p, cc, 6) },
		"cache-no-parity": func(p *program.Program, cc CampaignConfig) (any, error) {
			return cacheOutcomes(p, cc, false, 4)
		},
		"cache-parity": func(p *program.Program, cc CampaignConfig) (any, error) {
			return cacheOutcomes(p, cc, true, 4)
		},
		"rename": func(p *program.Program, cc CampaignConfig) (any, error) { return renameOutcomes(p, cc, 4) },
	}
	defer jitterProbes(t)()
	var decided, exact Progress
	for name, p := range progs {
		for study, run := range studies {
			t.Run(name+"/"+study, func(t *testing.T) {
				for _, seed := range []uint64{0x17b, 0x2c9, 0x3e7} {
					cc := CampaignConfig{Experiment: quickConfig(), Seed: seed, Workers: 2, Progress: &exact}
					// A shorter window keeps the exact reference affordable
					// under the race detector.
					cc.Experiment.WindowCycles = 8_000
					cc.Experiment.Exact = true
					cc.Experiment.SnapshotInterval = -1
					want, err := run(p, cc)
					if err != nil {
						t.Fatal(err)
					}
					for _, interval := range []int64{-1, 0, 512} {
						cc.Experiment.Exact, cc.Progress = false, &decided
						cc.Experiment.SnapshotInterval = interval
						got, err := run(p, cc)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("seed %#x, interval %d: decided %+v, exact %+v", seed, interval, got, want)
						}
					}
				}
			})
		}
	}
	if n := exact.StudyRunsDecidedEarly.Load(); n != 0 {
		t.Errorf("%d exact runs stopped early", n)
	}
	runs, early := decided.StudyRuns.Load(), decided.StudyRunsDecidedEarly.Load()
	if runs != 3*exact.StudyRuns.Load() || early == 0 {
		t.Errorf("%d of %d decided runs stopped early (%d exact runs)", early, runs, exact.StudyRuns.Load())
	}
	t.Logf("%d of %d runs decided early; %d cycles simulated, %d under Exact", early, runs,
		decided.StudyCyclesSimulated.Load(), exact.StudyCyclesSimulated.Load())
}

// TestPCPilotIsCleanReference proves hoisting the PC study's clean reference
// run sound: the pilot — stopped at every fault's resume point, then run on
// to the window's end — ends in exactly the Result of one straight run.
func TestPCPilotIsCleanReference(t *testing.T) {
	for name, p := range studyPrograms(t) {
		cfg := quickConfig()
		cpu, err := pipeline.New(p, cfg.pipelineConfig(core.ModeObserve))
		if err != nil {
			t.Fatal(err)
		}
		want := cpu.Run(cfg.WindowCycles)
		faults := []pcFault{{cycle: 1, bit: 2}, {cycle: 700, bit: 1}, {cycle: 700, bit: 3}, {cycle: 9_000, bit: 4}}
		st, err := newPCStudy(p, cfg, faults)
		if err != nil {
			t.Fatal(err)
		}
		if st.ref != want {
			t.Errorf("%s: pilot Result %+v, straight run %+v", name, st.ref, want)
		}
		// Cycle 1 needs no snapshot (cold is already before it) and the two
		// faults at cycle 700 share one.
		if len(st.snaps) != 2 || st.snaps[0].Cycle != 699 || st.snaps[1].Cycle != 8_999 {
			t.Errorf("%s: %d resume points, want cycles 699 and 8999", name, len(st.snaps))
		}
	}
}
