// Package energy provides the analytic cache energy and area models behind
// the paper's Section 5 comparison (Figure 9 and the die-photo area
// argument).
//
// The paper feeds cache configurations into CACTI 3.0 at 0.18 um and
// multiplies per-access energy by access counts. CACTI itself is a large
// transistor-level model; this package substitutes a compact analytic form
//
//	E_access = (k * size^alpha + m * lineBits) * assocFactor * portFactor
//
// whose three behaviours match what Figure 9 depends on: energy grows
// sublinearly with capacity (bank/decoder scaling), linearly with the bits
// read per access, and with way count and port count. The constants are
// calibrated so the model reproduces the paper's two published CACTI points
// exactly:
//
//	IBM Power4-like I-cache (64 KiB, direct-mapped, 128 B line): 0.87 nJ
//	ITR cache (8 KiB, 2-way, 8 B line): 0.58 nJ (0.84 nJ with 1rd+1wr ports)
package energy

import (
	"fmt"
	"math"
)

// Calibrated model constants (0.18 um).
const (
	alpha = 0.195     // capacity exponent
	kCap  = 0.0901425 // nJ per size^alpha
	mLine = 8.4424e-5 // nJ per line bit read

	assocPerWay  = 0.10 // relative energy per extra way
	assocCap     = 3.0  // CAM-style structures saturate
	portOverhead = 0.45 // relative energy per extra port
	refTechNM    = 180  // calibration technology node
)

// CacheSpec describes a cache for the energy/area model.
type CacheSpec struct {
	SizeBytes int
	Assoc     int // 0 = fully associative
	LineBytes int
	Ports     int // read/write ports (1 = single shared port)
	TechNM    int // technology node in nanometres (default 180)
}

// Validate checks the specification.
func (s CacheSpec) Validate() error {
	if s.SizeBytes <= 0 || s.LineBytes <= 0 || s.SizeBytes < s.LineBytes {
		return fmt.Errorf("invalid cache geometry: %d bytes, %d byte lines", s.SizeBytes, s.LineBytes)
	}
	if s.Ports < 0 {
		return fmt.Errorf("negative port count %d", s.Ports)
	}
	return nil
}

func (s CacheSpec) normalize() CacheSpec {
	if s.Ports == 0 {
		s.Ports = 1
	}
	if s.TechNM == 0 {
		s.TechNM = refTechNM
	}
	if s.Assoc == 0 { // fully associative
		s.Assoc = s.SizeBytes / s.LineBytes
	}
	return s
}

// techScale returns the energy scaling from the reference node: dynamic
// energy scales roughly with C*V^2, i.e. quadratically with feature size.
func techScale(nm int) float64 {
	f := float64(nm) / refTechNM
	return f * f
}

// AccessEnergyNJ returns the per-access energy in nanojoules.
func AccessEnergyNJ(s CacheSpec) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	s = s.normalize()
	lineBits := float64(s.LineBytes * 8)
	base := kCap*math.Pow(float64(s.SizeBytes), alpha) + mLine*lineBits
	assocF := 1 + assocPerWay*float64(s.Assoc-1)
	if assocF > assocCap {
		assocF = assocCap
	}
	portF := 1 + portOverhead*float64(s.Ports-1)
	return base * assocF * portF * techScale(s.TechNM), nil
}

// Reference specifications from the paper's Section 5.
var (
	// Power4ICache is the instruction cache used for the redundant-fetch
	// energy comparison: 64 KiB, direct-mapped, 128 B lines, one port.
	Power4ICache = CacheSpec{SizeBytes: 64 * 1024, Assoc: 1, LineBytes: 128, Ports: 1}
	// ITRCacheSinglePort is the paper's ITR cache: 8 KiB (1024 64-bit
	// signatures), 2-way, 8 B lines, one shared read/write port.
	ITRCacheSinglePort = CacheSpec{SizeBytes: 8 * 1024, Assoc: 2, LineBytes: 8, Ports: 1}
	// ITRCacheDualPort is the same array with separate read and write
	// ports.
	ITRCacheDualPort = CacheSpec{SizeBytes: 8 * 1024, Assoc: 2, LineBytes: 8, Ports: 2}
)

// Published CACTI values the model is calibrated against (nJ/access).
const (
	PaperICacheNJ       = 0.87
	PaperITRCacheNJ     = 0.58
	PaperITRCacheDualNJ = 0.84
)

// Die-photo areas from the IBM S/390 G5 (Section 5), in cm^2.
const (
	G5IUnitAreaCM2    = 2.1 // 1.5 cm x 1.4 cm: fetch + decode units
	G5ITRCacheAreaCM2 = 0.3 // 1.5 cm x 0.2 cm: BTB-like structure
)

// AreaComparison is the Section 5 area argument.
type AreaComparison struct {
	IUnitCM2    float64
	ITRCacheCM2 float64
	Ratio       float64 // I-unit area / ITR cache area (paper: ~7x)
}

// CompareAreas reproduces the die-photo comparison.
func CompareAreas() AreaComparison {
	return AreaComparison{
		IUnitCM2:    G5IUnitAreaCM2,
		ITRCacheCM2: G5ITRCacheAreaCM2,
		Ratio:       G5IUnitAreaCM2 / G5ITRCacheAreaCM2,
	}
}

// EnergyMJ converts an access count and per-access energy (nJ) to
// millijoules.
func EnergyMJ(accesses int64, perAccessNJ float64) float64 {
	return float64(accesses) * perAccessNJ * 1e-6
}

// FrontendAccessModel converts a dynamic instruction count to I-cache
// accesses. Fetch delivers about two useful instructions per I-cache access
// on average (taken branches and misalignment break fetch groups), the
// effective bandwidth behind Figure 9's I-cache bars.
const InstsPerICacheAccess = 2

// RedundantFetchAccesses returns the extra I-cache accesses a conventional
// time-redundant (or structurally duplicated) frontend performs to re-fetch
// dynInsts instructions.
func RedundantFetchAccesses(dynInsts int64) int64 {
	return dynInsts / InstsPerICacheAccess
}

// DetectorEnergyMJ maps a detection backend to its Section 5-style energy
// cost over one window, given the two measured ingredients: itrCacheMJ, the
// ITR cache's access-stream energy, and redundantFetchMJ, the I-cache energy
// of re-fetching every committed instruction once. The ITR checker pays only
// its cache stream; RepTFD-style chunked replay re-fetches each instruction
// once to rebuild the reference digest; DME-style divergent dual execution
// both re-fetches and re-executes, modeled as twice the redundant-fetch
// stream (fetch plus an execution pass of comparable datapath energy).
func DetectorEnergyMJ(detector string, itrCacheMJ, redundantFetchMJ float64) float64 {
	switch detector {
	case "reptfd":
		return redundantFetchMJ
	case "dme":
		return 2 * redundantFetchMJ
	default: // "itr" and the empty default
		return itrCacheMJ
	}
}
