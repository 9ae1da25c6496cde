package fault

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"itr/internal/core"
	"itr/internal/par"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// studyKey is everything that fixes a side study's sample and each of its
// injections' outcome.
type studyKey struct {
	prog   string
	study  string // a studyRuns key
	seed   uint64
	n      int
	window int64
}

// studyRuns runs each side study, returning its per-injection outcomes and
// their tally, the study's public result.
var studyRuns = map[string]func(p *program.Program, cc CampaignConfig, n int) (outs, res any, err error){
	"pc": func(p *program.Program, cc CampaignConfig, n int) (any, any, error) {
		outs, err := pcOutcomes(p, cc, n)
		return outs, tallyPC(outs), err
	},
	"cache-no-parity": func(p *program.Program, cc CampaignConfig, n int) (any, any, error) {
		outs, err := cacheOutcomes(p, cc, false, n)
		return outs, tallyCache(outs), err
	},
	"cache-parity": func(p *program.Program, cc CampaignConfig, n int) (any, any, error) {
		outs, err := cacheOutcomes(p, cc, true, n)
		return outs, tallyCache(outs), err
	},
	"rename": func(p *program.Program, cc CampaignConfig, n int) (any, any, error) {
		outs, err := renameOutcomes(p, cc, n)
		return outs, tallyRename(outs), err
	},
}

// studyRun is one study run's outcomes, their tally and its accounting.
type studyRun struct {
	outs, res any
	progress  *Progress
}

// run runs k's study on p, the program k names, under kn. An exact run
// that stops early is an error.
func (k studyKey) run(p *program.Program, kn knob) (studyRun, error) {
	cc := CampaignConfig{Experiment: quickConfig(), Seed: k.seed, Progress: &Progress{}}
	cc.Experiment.WindowCycles = k.window
	kn.apply(&cc)
	outs, res, err := studyRuns[k.study](p, cc, k.n)
	if n := cc.Progress.StudyRunsDecidedEarly.Load(); err == nil && kn.probes == exact && n != 0 {
		err = fmt.Errorf("%d exact runs stopped early", n)
	}
	return studyRun{outs, res, cc.Progress}, err
}

var studyRefs par.Memo[studyKey, studyRun]

// reference returns k's exact reference on p, computing it on first use.
func (k studyKey) reference(t *testing.T, p *program.Program) studyRun {
	t.Helper()
	ref, err := studyRefs.Do(k, func() (studyRun, error) { return k.run(p, refKnob) })
	if err != nil {
		t.Fatalf("exact reference: %v", err)
	}
	return ref
}

// TestSideStudiesDecidedMatchExact is the side studies' identity table:
// resuming from pilot snapshots, spreading injections over the worker pool
// and deciding runs early, on the production probe grid or a jittered one,
// change no injection's outcome. On the loop nest and three synthetic
// benchmarks, each study's per-injection outcomes at every knob setting must
// equal its exact reference's, and every decided run must be accounted as a
// study run, as the exact ones are. Where a result was recorded from the
// cold, serial, lockstep-reference harness the studies replaced, the exact
// reference's tally must equal it. Some decided runs must stop early.
func TestSideStudiesDecidedMatchExact(t *testing.T) {
	t.Parallel()
	var runs, early atomic.Int64
	t.Cleanup(func() {
		if early.Load() == 0 {
			t.Errorf("none of %d decided runs stopped early", runs.Load())
		}
		t.Logf("%d of %d decided runs stopped early", early.Load(), runs.Load())
	})
	recorded := map[studyKey]any{
		{"loop", "pc", 0x77, 8, 20_000}: PCFaultResult{Total: 8, Counts: map[PCOutcome]int{PCDetectedITR: 3, PCMasked: 2, PCDetectedSpc: 3}},
		{"art", "pc", 0x77, 8, 20_000}:  PCFaultResult{Total: 8, Counts: map[PCOutcome]int{PCDetectedITR: 5, PCDetectedSpc: 3}},
		{"loop", "cache-no-parity", 0x5, 6, 20_000}: CacheFaultResult{Total: 6,
			Counts: map[CacheFaultOutcome]int{CacheFalseMachineCheck: 5, CacheMasked: 1}},
		{"art", "cache-no-parity", 0x5, 6, 20_000}: CacheFaultResult{Total: 6,
			Counts: map[CacheFaultOutcome]int{CacheFalseMachineCheck: 3, CacheMasked: 3}},
		{"loop", "cache-parity", 0x5, 6, 20_000}: CacheFaultResult{Total: 6,
			Counts: map[CacheFaultOutcome]int{CacheParityRepaired: 5, CacheMasked: 1}},
		{"art", "cache-parity", 0x5, 6, 20_000}: CacheFaultResult{Total: 6,
			Counts: map[CacheFaultOutcome]int{CacheParityRepaired: 3, CacheMasked: 3}},
		{"loop", "rename", 0x42, 6, 20_000}: RenameCampaignResult{Total: 6, SDCWithoutExtension: 4, MaskedWithout: 2,
			DetectedWithExtension: 6, RecoveredWithExtension: 6},
		{"art", "rename", 0x42, 6, 20_000}: RenameCampaignResult{Total: 6, SDCWithoutExtension: 2, MaskedWithout: 4,
			DetectedWithExtension: 6, RecoveredWithExtension: 6},
	}
	for _, prog := range []string{"loop", "art", "vortex", "gcc"} {
		for _, study := range []string{"pc", "cache-no-parity", "cache-parity", "rename"} {
			t.Run(prog+"/"+study, func(t *testing.T) {
				t.Parallel()
				type tcase struct {
					key  studyKey
					knob knob
				}
				var cases []tcase
				n := 4
				if study == "pc" {
					n = 6
				}
				for _, seed := range []uint64{0x17b, 0x2c9, 0x3e7} {
					key := studyKey{prog, study, seed, n, 8_000}
					for _, kn := range []knob{{1, -1, jittered}, {4, 0, jittered}, {4, 512, jittered}} {
						cases = append(cases, tcase{key, kn})
					}
				}
				for key := range recorded {
					if key.prog != prog || key.study != study {
						continue
					}
					for _, interval := range []int64{-1, 0, 512} {
						for _, workers := range []int{1, 4} {
							cases = append(cases, tcase{key, knob{workers, interval, jittered}})
						}
					}
					cases = append(cases, tcase{key, knob{4, 0, fixed}})
				}

				p := tableProgram(t, prog)
				for _, c := range cases {
					t.Run(c.knob.name(fmt.Sprintf("window %d", c.key.window), c.key.seed), func(t *testing.T) {
						t.Parallel()
						want := c.key.reference(t, p)
						if rec, ok := recorded[c.key]; ok && !reflect.DeepEqual(want.res, rec) {
							t.Errorf("exact %+v, recorded %+v", want.res, rec)
						}
						got, err := c.key.run(p, c.knob)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.outs, want.outs) {
							t.Errorf("outcomes %+v, exact %+v", got.outs, want.outs)
						}
						if g, w := got.progress.StudyRuns.Load(), want.progress.StudyRuns.Load(); g != w {
							t.Errorf("%d runs accounted, exact %d", g, w)
						}
						runs.Add(got.progress.StudyRuns.Load())
						early.Add(got.progress.StudyRunsDecidedEarly.Load())
					})
				}
			})
		}
	}
}

// TestPCPilotIsCleanReference proves the PC study's clean reference sound:
// the pilot — stopped at every fault's resume point, then run on to the
// window's end on first need — ends in exactly the Result of one straight
// run, and it runs on only when a run asks.
func TestPCPilotIsCleanReference(t *testing.T) {
	for _, name := range []string{"loop", "art", "vortex"} {
		p := tableProgram(t, name)
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
		if got := st.pilot.CycleCount(); got != 8_999 {
			t.Errorf("%s: pilot ran to cycle %d before any run needed the reference, want 8999", name, got)
		}
		if got := st.reference(); got != want {
			t.Errorf("%s: pilot Result %+v, straight run %+v", name, got, want)
		}
		if got := st.reference(); got != want {
			t.Errorf("%s: second reference() %+v, want %+v", name, got, want)
		}
		// Cycle 1 needs no snapshot (cold is already before it) and the two
		// faults at cycle 700 share one.
		if len(st.snaps) != 2 || st.snaps[0].Cycle != 699 || st.snaps[1].Cycle != 8_999 {
			t.Errorf("%s: %d resume points, want cycles 699 and 8999", name, len(st.snaps))
		}
	}
}
