// Package baseline models the conventional fault-tolerance approaches the
// paper compares ITR against in Section 5:
//
//   - structural duplication of the frontend (IBM S/390 G5 style: the whole
//     I-unit is duplicated and outputs compared);
//   - conventional time redundancy (every instruction fetched and decoded
//     twice through the same frontend);
//   - ITR, optionally with the miss-fallback hybrid of Section 3 (redundant
//     fetch only on ITR cache misses).
//
// Each approach is summarized along the axes the paper argues about:
// frontend fault coverage, extra I-cache/ITR-cache work per instruction,
// area, and energy. The models are analytic on top of internal/energy plus
// measured access counts from the coverage simulator.
package baseline

import (
	"fmt"

	"itr/internal/core"
	"itr/internal/energy"
)

// Approach identifies a frontend protection scheme.
type Approach int

// The compared approaches.
const (
	Unprotected Approach = iota + 1
	StructuralDuplication
	TimeRedundant
	ITR
	ITRMissFallback
)

func (a Approach) String() string {
	switch a {
	case Unprotected:
		return "unprotected"
	case StructuralDuplication:
		return "structural-duplication"
	case TimeRedundant:
		return "time-redundant"
	case ITR:
		return "itr"
	case ITRMissFallback:
		return "itr+miss-fallback"
	default:
		return fmt.Sprintf("approach(%d)", int(a))
	}
}

// Workload carries the measured inputs for one benchmark.
type Workload struct {
	Name     string
	DynInsts int64
	// Coverage is the ITR coverage result for the chosen cache
	// configuration (provides read/write counts and loss percentages).
	Coverage core.Result
}

// Comparison is one row of the Section 5 comparison for one benchmark.
type Comparison struct {
	Approach Approach

	// DetectionCoverage is the percentage of dynamic instructions in which
	// a frontend fault would be detected.
	DetectionCoverage float64
	// RecoveryCoverage is the percentage of dynamic instructions in which a
	// detected frontend fault is recoverable by flush-and-restart.
	RecoveryCoverage float64

	// ExtraICacheAccesses counts redundant I-cache fetches.
	ExtraICacheAccesses int64
	// ITRCacheAccesses counts ITR cache reads + writes.
	ITRCacheAccesses int64
	// EnergyMJ is the protection-energy cost: redundant I-cache fetch
	// energy plus ITR cache access energy.
	EnergyMJ float64
	// AreaCM2 is the additional die area (G5-referenced, Section 5).
	AreaCM2 float64
}

// Compare evaluates one approach on one workload. itrSpec chooses the ITR
// cache port configuration used for energy accounting.
func Compare(a Approach, w Workload, itrSpec energy.CacheSpec) (Comparison, error) {
	iCacheNJ, err := energy.AccessEnergyNJ(energy.Power4ICache)
	if err != nil {
		return Comparison{}, fmt.Errorf("i-cache model: %w", err)
	}
	itrNJ, err := energy.AccessEnergyNJ(itrSpec)
	if err != nil {
		return Comparison{}, fmt.Errorf("itr cache model: %w", err)
	}

	c := Comparison{Approach: a}
	switch a {
	case Unprotected:
		// Nothing: zero cost, zero coverage.

	case StructuralDuplication:
		// A full second I-unit: complete detection, recovery by retry from
		// the checked boundary; re-fetches everything. (The G5 actually
		// duplicates inside one unit; energy-wise we charge the redundant
		// fetch stream, a conservative floor.)
		c.DetectionCoverage = 100
		c.RecoveryCoverage = 100
		c.ExtraICacheAccesses = energy.RedundantFetchAccesses(w.DynInsts)
		c.EnergyMJ = energy.EnergyMJ(c.ExtraICacheAccesses, iCacheNJ)
		c.AreaCM2 = energy.G5IUnitAreaCM2

	case TimeRedundant:
		// Fetch and decode everything twice through one frontend: full
		// detection, recovery by flush (the second copy has not committed),
		// half frontend bandwidth.
		c.DetectionCoverage = 100
		c.RecoveryCoverage = 100
		c.ExtraICacheAccesses = energy.RedundantFetchAccesses(w.DynInsts)
		c.EnergyMJ = energy.EnergyMJ(c.ExtraICacheAccesses, iCacheNJ)
		c.AreaCM2 = 0 // reuses existing structures; the cost is time/energy

	case ITR:
		c.DetectionCoverage = 100 - w.Coverage.DetectionLoss
		c.RecoveryCoverage = 100 - w.Coverage.RecoveryLoss
		c.ITRCacheAccesses = w.Coverage.Reads + w.Coverage.Writes
		c.EnergyMJ = energy.EnergyMJ(c.ITRCacheAccesses, itrNJ)
		c.AreaCM2 = energy.G5ITRCacheAreaCM2

	case ITRMissFallback:
		// Section 3 hybrid: conventional time redundancy only on ITR cache
		// misses. Detection and recovery become complete; the extra
		// I-cache traffic is only the re-fetched missing traces.
		c.DetectionCoverage = 100
		c.RecoveryCoverage = 100
		c.ITRCacheAccesses = w.Coverage.Reads + w.Coverage.Writes
		c.ExtraICacheAccesses = w.Coverage.FallbackInsts / energy.InstsPerICacheAccess
		c.EnergyMJ = energy.EnergyMJ(c.ITRCacheAccesses, itrNJ) +
			energy.EnergyMJ(c.ExtraICacheAccesses, iCacheNJ)
		c.AreaCM2 = energy.G5ITRCacheAreaCM2

	default:
		return Comparison{}, fmt.Errorf("unknown approach %d", int(a))
	}
	return c, nil
}
