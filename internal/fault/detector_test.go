package fault

import (
	"testing"

	"itr/internal/detect"
)

// TestRunOneLatFaultDetectedByRivals mirrors the ITR lat-fault test for the
// rival backends: a timing-only lat-bit flip perturbs the signature without
// corrupting architectural state, so every backend must classify it ITR+Mask.
func TestRunOneLatFaultDetectedByRivals(t *testing.T) {
	p := testProgram(t)
	oracle := NewSigOracle(p)
	for _, name := range []string{detect.NameRepTFD, detect.NameDME} {
		t.Run(name, func(t *testing.T) {
			cfg := quickConfig()
			cfg.Pipeline.Detector = name
			det, err := RunOne(p, oracle, cfg, Injection{DecodeIndex: 500, Bit: 40})
			if err != nil {
				t.Fatal(err)
			}
			if !det.Detected {
				t.Fatalf("lat fault undetected by %s: %+v", name, det)
			}
			if det.NaturalSDC {
				t.Fatal("lat fault corrupted architectural state")
			}
			if det.Category != ITRMask {
				t.Fatalf("category = %s, want %s", det.Category, ITRMask)
			}
		})
	}
}

// TestRivalBackendCampaigns smoke-runs a Figure 8 campaign per rival backend:
// totals and category counts must be consistent, and RepTFD — whose
// detections are post-commit — must never attempt flush-and-retry recovery.
func TestRivalBackendCampaigns(t *testing.T) {
	p := testProgram(t)
	for _, name := range []string{detect.NameRepTFD, detect.NameDME} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultCampaignConfig()
			cfg.Faults = 10
			cfg.Experiment.WindowCycles = 15_000
			cfg.Experiment.Pipeline.Detector = name
			res, err := RunCampaign(name, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Total != 10 {
				t.Fatalf("total = %d", res.Total)
			}
			sum := 0
			for _, c := range Categories() {
				sum += res.Counts[c]
			}
			if sum != res.Total {
				t.Fatalf("category counts sum to %d of %d", sum, res.Total)
			}
			if name == detect.NameRepTFD {
				if res.RecoveryAttempted != 0 {
					t.Fatalf("reptfd attempted %d recoveries; its detections are post-commit", res.RecoveryAttempted)
				}
				if res.Counts[ITRSDCR] != 0 || res.Counts[ITRWdogR] != 0 {
					t.Fatalf("reptfd produced recoverable categories: %+v", res.Counts)
				}
			}
			if res.RecoveryAttempted > 0 && res.RecoveryConfirmed != res.RecoveryAttempted {
				t.Fatalf("recovery confirmation %d/%d", res.RecoveryConfirmed, res.RecoveryAttempted)
			}
		})
	}
}

// TestCacheFaultRejectsRivalBackend: the Section 2.4 study injects into the
// ITR signature cache, which the rival backends do not have.
func TestCacheFaultRejectsRivalBackend(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	cfg.Pipeline.Detector = detect.NameRepTFD
	if _, err := RunCacheFaultCampaign(p, cfg, false, 3, 1); err == nil {
		t.Fatal("cache fault study accepted a backend without an ITR cache")
	}
}
