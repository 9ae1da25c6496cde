package workload

import (
	"fmt"
	"reflect"
	"testing"

	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/trace"
)

func TestSuiteShape(t *testing.T) {
	all := Suite()
	if len(all) != 16 {
		t.Fatalf("suite size %d, want 16", len(all))
	}
	if len(IntSuite()) != 9 {
		t.Fatalf("int suite %d, want 9", len(IntSuite()))
	}
	if len(FPSuite()) != 7 {
		t.Fatalf("fp suite %d, want 7", len(FPSuite()))
	}
	if len(CoverageSuite()) != 11 {
		t.Fatalf("coverage suite %d, want 11 (paper Figures 6-8)", len(CoverageSuite()))
	}
}

// Table 1 of the paper, verbatim.
var table1 = map[string]int{
	"bzip": 283, "gap": 696, "gcc": 24017, "gzip": 291, "parser": 865,
	"perl": 1704, "twolf": 481, "vortex": 2655, "vpr": 292,
	"applu": 282, "apsi": 1274, "art": 98, "equake": 336, "mgrid": 798,
	"swim": 73, "wupwise": 18,
}

func TestProfilesMatchTable1(t *testing.T) {
	if len(table1) != 16 {
		t.Fatal("test fixture wrong")
	}
	for _, p := range Suite() {
		want, ok := table1[p.Name]
		if !ok {
			t.Errorf("benchmark %s not in Table 1", p.Name)
			continue
		}
		if p.StaticTraces != want {
			t.Errorf("%s: profile target %d, Table 1 says %d", p.Name, p.StaticTraces, want)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("vortex")
	if err != nil || p.StaticTraces != 2655 {
		t.Fatalf("ByName(vortex) = %+v, %v", p, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Names()) != 16 {
		t.Fatal("Names() incomplete")
	}
}

func TestScaledBudget(t *testing.T) {
	p := Profile{BudgetScale: 10}
	if got := p.ScaledBudget(100); got != 1000 {
		t.Fatalf("scaled = %d", got)
	}
	p.BudgetScale = 0
	if got := p.ScaledBudget(100); got != 100 {
		t.Fatalf("unscaled = %d", got)
	}
}

func TestBuildRejectsEmptyProfile(t *testing.T) {
	if _, err := Build(Profile{Name: "empty", StaticTraces: 10}); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestBuildRejectsInfeasibleTarget(t *testing.T) {
	p := Profile{Name: "tiny", StaticTraces: 3, Components: []Component{{10, 5}}}
	if _, err := Build(p); err == nil {
		t.Fatal("infeasible target accepted")
	}
}

// coldTraces sizes the cold code from assemble's layout, so the first
// assemble meets the target: for every suite profile, and for custom int and
// fp profiles at the ValidateProfile floor (cold 0), at a lone run-once guard
// (cold 1), on both sides of the run-once/sliced boundary, at two and four
// slices, and at the largest target whose twelve slices each fit a 16-bit
// guard branch. One trace below the floor, ValidateProfile and Build both
// reject the target; one trace above the largest, ValidateProfile does.
func TestColdTracesFirstAssembleHitsTarget(t *testing.T) {
	check := func(p Profile) int {
		t.Helper()
		cold := coldTraces(p)
		prog, err := assemble(p, cold)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := prog.StaticTraceCount() - 1; got != p.StaticTraces {
			t.Errorf("%s (cold %d): first assemble holds %d static traces, want %d", p.Name, cold, got, p.StaticTraces)
		}
		return cold
	}
	for _, p := range Suite() {
		check(p)
	}
	// A target 150 traces above the floor still takes the run-once layout
	// (cold 150 sliced would also meet it); one more takes the sliced
	// layout, whose cold count is one above the traces it adds.
	// Cold 32775 is 12 slice guards, 3 countdown traces and 12 slices of
	// maxBranchTraces bodies.
	cases := []struct{ extra, cold int }{{0, 0}, {1, 1}, {150, 150}, {151, 152}, {1700, 1701}, {3300, 3301}, {32774, 32775}}
	for _, fp := range []bool{false, true} {
		p := Profile{Name: "custom", FP: fp, Seed: 11, Components: []Component{{12, 40}, {30, 1}}}
		floor := -coldTraces(p) // hot traces plus overhead, at target 0
		for _, c := range cases {
			p.Name = fmt.Sprintf("custom-fp=%v-floor+%d", fp, c.extra)
			p.StaticTraces = floor + c.extra
			if err := ValidateProfile(p); err != nil {
				t.Errorf("%s rejected: %v", p.Name, err)
			}
			if cold := check(p); cold != c.cold {
				t.Errorf("%s: cold %d, want %d", p.Name, cold, c.cold)
			}
		}
		p.Name = fmt.Sprintf("custom-fp=%v-floor-1", fp)
		p.StaticTraces = floor - 1
		if ValidateProfile(p) == nil {
			t.Errorf("%s: ValidateProfile accepted a target below the floor", p.Name)
		}
		if _, err := Build(p); err == nil {
			t.Errorf("%s: Build accepted a target below the floor", p.Name)
		}
		p.StaticTraces = floor + 32775
		if ValidateProfile(p) == nil {
			t.Errorf("custom-fp=%v: ValidateProfile accepted a slice past the guard's branch range", fp)
		}
	}
}

// The central calibration property: every benchmark's dynamically observed
// static trace count equals the paper's Table 1 value exactly.
func TestStaticTraceCountsMatchTable1Dynamically(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite calibration check is not short")
	}
	for _, p := range Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := Build(p)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			budget := p.ScaledBudget(DefaultBudget)
			c := trace.Characterize(prog, budget)
			if got := c.StaticTraces(); got != p.StaticTraces {
				t.Errorf("observed %d static traces at budget %d, want %d", got, budget, p.StaticTraces)
			}
			if c.SignatureConflicts() != 0 {
				t.Error("signature conflicts detected: trace formation broken")
			}
		})
	}
}

func TestBuiltProgramsVerify(t *testing.T) {
	for _, p := range []string{"bzip", "vortex", "wupwise"} {
		prof, _ := ByName(p)
		prog, err := Build(prof)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := program.Verify(prog); err != nil {
			t.Errorf("%s does not verify: %v", p, err)
		}
	}
}

func TestProgramsAreDeterministic(t *testing.T) {
	prof, _ := ByName("gap")
	a, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestProgramsRunWithoutHalting(t *testing.T) {
	// Benchmarks must be budget-limited, not self-terminating, at realistic
	// budgets.
	prof, _ := ByName("swim")
	prog, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	executed, halted := program.Run(prog, 500_000, nil)
	if halted || executed != 500_000 {
		t.Fatalf("executed=%d halted=%v", executed, halted)
	}
}

func TestFPProfilesUseFPInstructions(t *testing.T) {
	prof, _ := ByName("swim")
	prog, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	for _, inst := range prog.Insts {
		if inst.Op.IsFP() {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("fp benchmark contains no fp instructions")
	}
	intProf, _ := ByName("gzip")
	intProg, err := Build(intProf)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range intProg.Insts {
		if inst.Op.IsFP() {
			t.Fatal("int benchmark contains fp instructions")
		}
	}
}

func TestEventsConsistentWithProgram(t *testing.T) {
	prof, _ := ByName("art")
	prog, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	events, executed := EventsOf(prog, 100_000)
	if executed != 100_000 {
		t.Fatalf("executed = %d", executed)
	}
	total := int64(0)
	for _, ev := range events {
		if ev.Len < 1 || ev.Len > isa.MaxTraceLen {
			t.Fatalf("bad trace length %d", ev.Len)
		}
		total += int64(ev.Len)
	}
	if total != executed {
		t.Fatalf("trace instructions %d != executed %d", total, executed)
	}
}

// TestCachedEventsMemoization: CachedEvents memoizes the program, not the
// events — each call executes the shared program afresh and returns a new
// slice the caller owns, equal to EventsOf at that budget.
func TestCachedEventsMemoization(t *testing.T) {
	prof, _ := ByName("wupwise")
	a, err := CachedEvents(prof, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedEvents(prof, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat calls differ: %d vs %d events", len(a), len(b))
	}
	if &a[0] == &b[0] {
		t.Fatal("repeat calls share a backing array")
	}
	prog, err := CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	again, err := CachedProgram(prof)
	if err != nil || again != prog {
		t.Fatalf("CachedProgram rebuilt the program (err %v)", err)
	}
	if want, _ := EventsOf(prog, 50_000); !reflect.DeepEqual(a, want) {
		t.Fatal("CachedEvents differs from EventsOf on the cached program")
	}
	c, err := CachedEvents(prof, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) >= len(a) {
		t.Fatalf("smaller budget produced %d >= %d events", len(c), len(a))
	}
}

func TestHotTraces(t *testing.T) {
	p := Profile{Components: []Component{{10, 1}, {20, 5}}}
	if got := p.HotTraces(); got != 30 {
		t.Fatalf("hot = %d", got)
	}
}

// Distance-profile anchors from the paper's Figures 3-4 (Section 1 text):
// most integer benchmarks reach 85% of dynamic instructions within 5000;
// fp benchmarks (except apsi) within 1500; perl and vortex lag.
func TestDistanceAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization run is not short")
	}
	check := func(name string, dist int64, min, max float64) {
		prof, _ := ByName(name)
		prog, err := CachedProgram(prof)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := trace.Characterize(prog, 1_000_000)
		got := c.RepeatFractionWithin(dist)
		if got < min || got > max {
			t.Errorf("%s: repeat fraction within %d = %.1f%%, want [%v, %v]", name, dist, got, min, max)
		}
	}
	check("bzip", 5000, 90, 100)
	check("wupwise", 1500, 95, 100)
	check("mgrid", 1500, 90, 100)
	check("vortex", 5000, 60, 92)
	check("perl", 5000, 70, 95)
}

// The sliced cold tail must actually distribute rarely-executed code across
// outer cycles: consecutive 500k-instruction windows of gcc observe
// different subsets of the static trace universe.
func TestSlicedColdSpreadsAcrossCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("gcc stream is not short")
	}
	prof, _ := ByName("gcc")
	prog, err := CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[uint64]bool)
	second := make(map[uint64]bool)
	count := int64(0)
	trace.Stream(prog, 8_000_000, func(ev trace.Event) bool {
		count += int64(ev.Len)
		if count < 4_000_000 {
			first[ev.StartPC] = true
		} else {
			second[ev.StartPC] = true
		}
		return true
	})
	fresh := 0
	for pc := range second {
		if !first[pc] {
			fresh++
		}
	}
	if fresh < 500 {
		t.Fatalf("second window observed only %d new static traces; cold tail is front-loaded", fresh)
	}
}

// Run-once cold regions execute exactly once: their traces appear a single
// time in a long stream.
func TestRunOnceColdExecutesOnce(t *testing.T) {
	prof, _ := ByName("vpr") // small cold tail => run-once region
	prog, err := CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint64]int)
	trace.Stream(prog, 2_000_000, func(ev trace.Event) bool {
		counts[ev.StartPC]++
		return true
	})
	once := 0
	for _, n := range counts {
		if n == 1 {
			once++
		}
	}
	if once < 50 {
		t.Fatalf("only %d run-once traces observed; expected a cold region", once)
	}
}

// Component structure determines reuse distance: a benchmark's inner-loop
// traces must repeat at roughly bodySize * averageTraceLength instructions.
func TestComponentDistanceStructure(t *testing.T) {
	prof := Profile{
		Name:         "synthetic",
		StaticTraces: 140,
		Components:   []Component{{40, 50}},
		Seed:         7,
	}
	prog, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	c := trace.Characterize(prog, 500_000)
	// Body of 40 traces at ~8 instructions each: repeats land within 500.
	if got := c.RepeatFractionWithin(700); got < 80 {
		t.Fatalf("inner-loop repeats not tight: %.1f%% within 700", got)
	}
}
