package fault

import (
	"reflect"
	"runtime"
	"testing"

	"itr/internal/core"
	"itr/internal/pipeline"
	"itr/internal/program"
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
// resuming from pilot snapshots and spreading injections over the worker
// pool are invisible in the results. Each study must return a result
// reflect.DeepEqual to the one recorded from the cold, serial, lockstep-
// reference harness it replaced, at every snapshot setting (-1 disables
// snapshots) and at pool widths 1 and 4.
func TestSideStudiesSnapshotAndWidthIdentical(t *testing.T) {
	type study struct {
		name string
		run  func(*program.Program, Config) (any, error)
		want map[string]any // recorded result per program
	}
	studies := []study{
		{"pc", func(p *program.Program, cfg Config) (any, error) {
			return RunPCFaultCampaign(p, cfg, 8, 0x77)
		}, map[string]any{
			"loop": PCFaultResult{Total: 8, Counts: map[PCOutcome]int{PCDetectedITR: 3, PCMasked: 2, PCDetectedSpc: 3}},
			"art":  PCFaultResult{Total: 8, Counts: map[PCOutcome]int{PCDetectedITR: 5, PCDetectedSpc: 3}},
		}},
		{"cache-no-parity", func(p *program.Program, cfg Config) (any, error) {
			return RunCacheFaultCampaign(p, cfg, false, 6, 0x5)
		}, map[string]any{
			"loop": CacheFaultResult{Total: 6, Counts: map[CacheFaultOutcome]int{CacheFalseMachineCheck: 5, CacheMasked: 1}},
			"art":  CacheFaultResult{Total: 6, Counts: map[CacheFaultOutcome]int{CacheFalseMachineCheck: 3, CacheMasked: 3}},
		}},
		{"cache-parity", func(p *program.Program, cfg Config) (any, error) {
			return RunCacheFaultCampaign(p, cfg, true, 6, 0x5)
		}, map[string]any{
			"loop": CacheFaultResult{Total: 6, Counts: map[CacheFaultOutcome]int{CacheParityRepaired: 5, CacheMasked: 1}},
			"art":  CacheFaultResult{Total: 6, Counts: map[CacheFaultOutcome]int{CacheParityRepaired: 3, CacheMasked: 3}},
		}},
		{"rename", func(p *program.Program, cfg Config) (any, error) {
			return RunRenameCampaign(p, cfg, 6, 0x42)
		}, map[string]any{
			"loop": RenameCampaignResult{Total: 6, SDCWithoutExtension: 4, MaskedWithout: 2,
				DetectedWithExtension: 6, RecoveredWithExtension: 6},
			"art": RenameCampaignResult{Total: 6, SDCWithoutExtension: 2, MaskedWithout: 4,
				DetectedWithExtension: 6, RecoveredWithExtension: 6},
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, p := range studyPrograms(t) {
		for _, st := range studies {
			t.Run(name+"/"+st.name, func(t *testing.T) {
				for _, interval := range []int64{-1, 0, 512} {
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						cfg := quickConfig()
						cfg.SnapshotInterval = interval
						got, err := st.run(p, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if want := st.want[name]; !reflect.DeepEqual(got, want) {
							t.Errorf("interval %d, GOMAXPROCS %d: %+v, want %+v", interval, procs, got, want)
						}
					}
				}
			})
		}
	}
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
