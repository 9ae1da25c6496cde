package baseline

import (
	"testing"

	"itr/internal/core"
	"itr/internal/energy"
)

func workload() Workload {
	return Workload{
		Name:     "test",
		DynInsts: 4_000_000,
		Coverage: core.Result{
			TotalInsts:    4_000_000,
			DetectionLoss: 1.3,
			RecoveryLoss:  2.5,
			Reads:         520_000,
			Writes:        4_000,
			FallbackInsts: 100_000,
		},
	}
}

func TestITRBeatsRedundantFetchOnEnergy(t *testing.T) {
	w := workload()
	itr, err := Compare(ITR, w, energy.ITRCacheSinglePort)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Compare(TimeRedundant, w, energy.ITRCacheSinglePort)
	if err != nil {
		t.Fatal(err)
	}
	if itr.EnergyMJ >= tr.EnergyMJ {
		t.Fatalf("ITR energy %.2f mJ not below time-redundant %.2f mJ (the paper's Figure 9 claim)",
			itr.EnergyMJ, tr.EnergyMJ)
	}
	// Roughly: ITR ~0.3 mJ vs redundant fetch ~1.7 mJ at this scale.
	if tr.EnergyMJ/itr.EnergyMJ < 2 {
		t.Fatalf("energy advantage only %.1fx; expected severalfold", tr.EnergyMJ/itr.EnergyMJ)
	}
}

func TestStructuralDuplicationAreaRatio(t *testing.T) {
	w := workload()
	sd, _ := Compare(StructuralDuplication, w, energy.ITRCacheSinglePort)
	itr, _ := Compare(ITR, w, energy.ITRCacheSinglePort)
	if sd.AreaCM2/itr.AreaCM2 < 6.5 || sd.AreaCM2/itr.AreaCM2 > 7.5 {
		t.Fatalf("area ratio %.2f, paper says about one seventh", sd.AreaCM2/itr.AreaCM2)
	}
	if sd.DetectionCoverage != 100 || sd.RecoveryCoverage != 100 {
		t.Fatal("duplication must give complete coverage")
	}
}

func TestITRCoverageReflectsLosses(t *testing.T) {
	w := workload()
	itr, _ := Compare(ITR, w, energy.ITRCacheSinglePort)
	if itr.DetectionCoverage != 98.7 || itr.RecoveryCoverage != 97.5 {
		t.Fatalf("coverage: %+v", itr)
	}
}

func TestMissFallbackRestoresCoverageAtEnergyCost(t *testing.T) {
	w := workload()
	itr, _ := Compare(ITR, w, energy.ITRCacheSinglePort)
	fb, _ := Compare(ITRMissFallback, w, energy.ITRCacheSinglePort)
	if fb.DetectionCoverage != 100 || fb.RecoveryCoverage != 100 {
		t.Fatal("fallback must restore full coverage")
	}
	if fb.EnergyMJ <= itr.EnergyMJ {
		t.Fatal("fallback must cost extra energy")
	}
	tr, _ := Compare(TimeRedundant, w, energy.ITRCacheSinglePort)
	if fb.EnergyMJ >= tr.EnergyMJ {
		t.Fatal("fallback should still undercut full time redundancy")
	}
}

func TestUnprotectedIsFree(t *testing.T) {
	w := workload()
	u, _ := Compare(Unprotected, w, energy.ITRCacheSinglePort)
	if u.EnergyMJ != 0 || u.AreaCM2 != 0 || u.DetectionCoverage != 0 {
		t.Fatalf("unprotected: %+v", u)
	}
}

func TestCompareUnknownApproach(t *testing.T) {
	if _, err := Compare(Approach(99), workload(), energy.ITRCacheSinglePort); err == nil {
		t.Fatal("unknown approach accepted")
	}
}

func TestApproachString(t *testing.T) {
	for _, a := range []Approach{Unprotected, StructuralDuplication, TimeRedundant, ITR, ITRMissFallback, Approach(42)} {
		if a.String() == "" {
			t.Fatalf("empty name for %d", int(a))
		}
	}
}

func TestDualPortEnergyHigher(t *testing.T) {
	w := workload()
	single, _ := Compare(ITR, w, energy.ITRCacheSinglePort)
	dual, _ := Compare(ITR, w, energy.ITRCacheDualPort)
	if dual.EnergyMJ <= single.EnergyMJ {
		t.Fatal("dual-port ITR cache must cost more energy")
	}
}
