// Package workload synthesizes the benchmark programs that stand in for the
// paper's SPEC2K runs. Each profile is calibrated so that the resulting
// program reproduces the repetition characteristics the ITR mechanism is
// sensitive to:
//
//   - the static trace count of the paper's Table 1 (matched exactly by
//     construction: the synthesizer counts every trace it emits and pads
//     with cold code);
//   - the repeat-distance profile of Figures 3-4 (via loop-nest structure:
//     tight loops produce short distances, large loop bodies produce
//     capacity-scale distances, and straight-line phases repeat only at the
//     outer-cycle length);
//   - the popularity skew of Figures 1-2 (few hot traces dominating dynamic
//     instructions, plus a cold tail).
//
// The generated programs are real programs over the internal/isa instruction
// set — they execute functionally, run on the cycle-level pipeline, and their
// trace streams drive the ITR cache exactly as a SPEC binary would drive the
// paper's simulator.
package workload

import "fmt"

// Component is one loop nest of a synthetic benchmark, visited once per
// outer-loop cycle.
type Component struct {
	// Traces is the number of static traces in the loop body.
	Traces int
	// Iters is how many times the body executes per outer-cycle visit.
	// Iters == 1 models straight-line phase code: it repeats only at the
	// outer-cycle distance, the behaviour that stresses ITR cache capacity.
	Iters int
}

// Profile describes one synthetic benchmark.
type Profile struct {
	// Name matches the SPEC2K benchmark it stands in for.
	Name string
	// FP selects a floating-point instruction mix (SPECfp stand-ins).
	FP bool
	// StaticTraces is the Table 1 target: the synthesizer pads with cold
	// (rarely executed) code so the program contains exactly this many
	// static traces.
	StaticTraces int
	// Components are the hot loop nests, visited in order each outer cycle.
	Components []Component
	// Seed makes instruction selection deterministic per benchmark.
	Seed uint64
	// BudgetScale multiplies the default instruction budget for benchmarks
	// whose static trace universe needs a longer window to be fully
	// observed (gcc's 24017 traces, mirroring why the paper simulates 200M
	// instructions). Zero means 1.
	BudgetScale int
}

// ScaledBudget applies the profile's budget multiplier.
func (p Profile) ScaledBudget(budget int64) int64 {
	if p.BudgetScale > 1 {
		return budget * int64(p.BudgetScale)
	}
	return budget
}

// HotTraces returns the number of static traces in hot components.
func (p Profile) HotTraces() int {
	n := 0
	for _, c := range p.Components {
		n += c.Traces
	}
	return n
}

func (p Profile) String() string {
	return fmt.Sprintf("%s(%d traces, %d components)", p.Name, p.StaticTraces, len(p.Components))
}

// The 16 benchmark profiles. Static trace counts are the paper's Table 1.
// Component structure is calibrated against the paper's Figures 3-4 anchors:
//   - bzip/gzip/art/mgrid/swim/wupwise: tight loops, negligible coverage loss;
//   - perl/vortex: large bodies and straight-line phases repeating far apart,
//     the highest coverage loss;
//   - gcc/twolf/apsi: notable but intermediate loss;
//   - remaining benchmarks: small loss, recoverable with modest caches.
var profiles = []Profile{
	// SPECint stand-ins.
	{Name: "bzip", StaticTraces: 283, Seed: 0xb21b,
		Components: []Component{{30, 220}, {25, 160}, {60, 60}}},
	{Name: "gap", StaticTraces: 696, Seed: 0x6a9,
		Components: []Component{{40, 200}, {80, 50}, {120, 18}, {160, 6}}},
	{Name: "gcc", StaticTraces: 24017, Seed: 0x6cc, BudgetScale: 10,
		Components: []Component{
			{25, 1000}, {30, 800}, {40, 500}, {80, 40}, {100, 30},
			{120, 25}, {150, 20}, {200, 15}, {250, 12}, {400, 1}, {400, 1},
		}},
	{Name: "gzip", StaticTraces: 291, Seed: 0x6219,
		Components: []Component{{25, 260}, {35, 140}, {55, 55}}},
	{Name: "parser", StaticTraces: 865, Seed: 0x9a54,
		Components: []Component{{50, 150}, {100, 40}, {150, 14}, {220, 3}}},
	{Name: "perl", StaticTraces: 1704, Seed: 0x9e41,
		Components: []Component{{40, 330}, {400, 3}, {400, 3}, {500, 1}}},
	{Name: "twolf", StaticTraces: 481, Seed: 0x2017,
		Components: []Component{{60, 60}, {120, 20}, {180, 5}, {80, 1}}},
	{Name: "vortex", StaticTraces: 2655, Seed: 0x0f7e,
		Components: []Component{{25, 300}, {30, 200}, {400, 3}, {400, 3}, {400, 3}, {550, 1}, {550, 1}}},
	{Name: "vpr", StaticTraces: 292, Seed: 0x09f4,
		Components: []Component{{35, 140}, {70, 65}, {90, 22}}},

	// SPECfp stand-ins.
	{Name: "applu", FP: true, StaticTraces: 282, Seed: 0xa931,
		Components: []Component{{60, 320}, {80, 110}, {100, 45}}},
	{Name: "apsi", FP: true, StaticTraces: 1274, Seed: 0xa851,
		Components: []Component{{80, 120}, {200, 8}, {250, 4}, {300, 1}}},
	{Name: "art", FP: true, StaticTraces: 98, Seed: 0xa47,
		Components: []Component{{30, 550}, {40, 220}}},
	{Name: "equake", FP: true, StaticTraces: 336, Seed: 0xe3a3,
		Components: []Component{{50, 330}, {90, 90}, {120, 22}}},
	{Name: "mgrid", FP: true, StaticTraces: 798, Seed: 0x369d,
		Components: []Component{{15, 4000}, {20, 2500}, {25, 1600}, {30, 1000}}},
	{Name: "swim", FP: true, StaticTraces: 73, Seed: 0x5319,
		Components: []Component{{25, 1100}, {30, 450}}},
	{Name: "wupwise", FP: true, StaticTraces: 18, Seed: 0x3389,
		Components: []Component{{10, 2600}}},
}

// Suite returns all 16 benchmark profiles in the paper's order
// (SPECint alphabetical, then SPECfp alphabetical).
func Suite() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// IntSuite returns the SPECint stand-ins.
func IntSuite() []Profile { return filter(false) }

// FPSuite returns the SPECfp stand-ins.
func FPSuite() []Profile { return filter(true) }

func filter(fp bool) []Profile {
	var out []Profile
	for _, p := range profiles {
		if p.FP == fp {
			out = append(out, p)
		}
	}
	return out
}

// CoverageSuite returns the 11 benchmarks shown in the paper's Figures 6-8
// (bzip, gzip, art, mgrid and wupwise are omitted there for having
// negligible coverage loss).
func CoverageSuite() []Profile {
	shown := map[string]bool{
		"gap": true, "gcc": true, "parser": true, "perl": true, "twolf": true,
		"vortex": true, "vpr": true, "applu": true, "apsi": true,
		"equake": true, "swim": true,
	}
	var out []Profile
	for _, p := range profiles {
		if shown[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// ByName returns the profile with the given benchmark name.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("unknown benchmark %q", name)
}

// Names returns all benchmark names, SPECint first.
func Names() []string {
	names := make([]string, 0, len(profiles))
	for _, p := range profiles {
		names = append(names, p.Name)
	}
	return names
}
