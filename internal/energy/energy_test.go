package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func within(got, want, tolPct float64) bool {
	return math.Abs(got-want) <= want*tolPct/100
}

// The model must reproduce the paper's two published CACTI points.
func TestCalibrationICache(t *testing.T) {
	got, err := AccessEnergyNJ(Power4ICache)
	if err != nil {
		t.Fatal(err)
	}
	if !within(got, PaperICacheNJ, 1.0) {
		t.Fatalf("I-cache energy %.4f nJ, want %.2f (±1%%)", got, PaperICacheNJ)
	}
}

func TestCalibrationITRCache(t *testing.T) {
	got, err := AccessEnergyNJ(ITRCacheSinglePort)
	if err != nil {
		t.Fatal(err)
	}
	if !within(got, PaperITRCacheNJ, 1.0) {
		t.Fatalf("ITR cache energy %.4f nJ, want %.2f (±1%%)", got, PaperITRCacheNJ)
	}
}

func TestCalibrationITRCacheDualPort(t *testing.T) {
	got, err := AccessEnergyNJ(ITRCacheDualPort)
	if err != nil {
		t.Fatal(err)
	}
	if !within(got, PaperITRCacheDualNJ, 1.0) {
		t.Fatalf("dual-port ITR cache energy %.4f nJ, want %.2f (±1%%)", got, PaperITRCacheDualNJ)
	}
}

func TestEnergyMonotoneInSize(t *testing.T) {
	prev := 0.0
	for _, size := range []int{4096, 8192, 16384, 65536, 262144} {
		e, err := AccessEnergyNJ(CacheSpec{SizeBytes: size, Assoc: 2, LineBytes: 8})
		if err != nil {
			t.Fatal(err)
		}
		if e <= prev {
			t.Fatalf("energy not monotone at %d bytes: %v <= %v", size, e, prev)
		}
		prev = e
	}
}

func TestEnergySublinearInSize(t *testing.T) {
	small, _ := AccessEnergyNJ(CacheSpec{SizeBytes: 8192, Assoc: 2, LineBytes: 8})
	big, _ := AccessEnergyNJ(CacheSpec{SizeBytes: 8 * 8192, Assoc: 2, LineBytes: 8})
	if big >= 8*small {
		t.Fatalf("energy superlinear: 8x size gave %vx energy", big/small)
	}
	if big <= small {
		t.Fatal("bigger cache must cost more per access")
	}
}

func TestEnergyGrowsWithPortsAndWays(t *testing.T) {
	base, _ := AccessEnergyNJ(CacheSpec{SizeBytes: 8192, Assoc: 2, LineBytes: 8, Ports: 1})
	dual, _ := AccessEnergyNJ(CacheSpec{SizeBytes: 8192, Assoc: 2, LineBytes: 8, Ports: 2})
	if dual <= base {
		t.Fatal("extra port must cost energy")
	}
	w4, _ := AccessEnergyNJ(CacheSpec{SizeBytes: 8192, Assoc: 4, LineBytes: 8})
	if w4 <= base {
		t.Fatal("extra ways must cost energy")
	}
}

func TestEnergyTechScaling(t *testing.T) {
	e180, _ := AccessEnergyNJ(CacheSpec{SizeBytes: 8192, Assoc: 2, LineBytes: 8, TechNM: 180})
	e90, _ := AccessEnergyNJ(CacheSpec{SizeBytes: 8192, Assoc: 2, LineBytes: 8, TechNM: 90})
	if !within(e90, e180/4, 1) {
		t.Fatalf("quadratic tech scaling violated: %v vs %v/4", e90, e180)
	}
}

func TestEnergyFullyAssociativeSaturates(t *testing.T) {
	fa, err := AccessEnergyNJ(CacheSpec{SizeBytes: 8192, Assoc: 0, LineBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := AccessEnergyNJ(CacheSpec{SizeBytes: 8192, Assoc: 2, LineBytes: 8})
	if fa <= w2 {
		t.Fatal("fully associative must cost more than 2-way")
	}
	if fa > w2*5 {
		t.Fatalf("fa energy unsaturated: %v vs %v", fa, w2)
	}
}

func TestEnergyValidation(t *testing.T) {
	if _, err := AccessEnergyNJ(CacheSpec{SizeBytes: 0, LineBytes: 8}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := AccessEnergyNJ(CacheSpec{SizeBytes: 4, LineBytes: 8}); err == nil {
		t.Fatal("line larger than cache accepted")
	}
	if _, err := AccessEnergyNJ(CacheSpec{SizeBytes: -1, LineBytes: 8}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestAreaComparisonMatchesPaper(t *testing.T) {
	cmp := CompareAreas()
	if cmp.IUnitCM2 != 2.1 || cmp.ITRCacheCM2 != 0.3 {
		t.Fatalf("die photo constants: %+v", cmp)
	}
	if !within(cmp.Ratio, 7.0, 1) {
		t.Fatalf("ratio %v, paper says about one seventh", cmp.Ratio)
	}
}

func TestEnergyMJ(t *testing.T) {
	// 1e6 accesses at 1 nJ = 1 mJ.
	if got := EnergyMJ(1_000_000, 1.0); !within(got, 1.0, 0.001) {
		t.Fatalf("EnergyMJ = %v", got)
	}
}

func TestRedundantFetchAccesses(t *testing.T) {
	if got := RedundantFetchAccesses(200_000_000); got != 100_000_000 {
		t.Fatalf("accesses = %d", got)
	}
}

// Property: energy is positive and finite for any sane geometry.
func TestPropertyEnergyPositive(t *testing.T) {
	if err := quick.Check(func(sizeSel, lineSel, ways, ports uint8) bool {
		size := 1024 << (sizeSel % 8)
		line := 8 << (lineSel % 5)
		if line > size {
			return true
		}
		e, err := AccessEnergyNJ(CacheSpec{
			SizeBytes: size,
			Assoc:     int(ways%16) + 1,
			LineBytes: line,
			Ports:     int(ports%4) + 1,
		})
		return err == nil && e > 0 && !math.IsInf(e, 0) && !math.IsNaN(e)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
