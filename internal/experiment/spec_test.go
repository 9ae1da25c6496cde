package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"itr/internal/workload"
)

// TestSpecJSONRoundTrip marshals a fully-populated spec and decodes it back:
// the two must be structurally identical, or manifests would not reproduce
// the runs they record.
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{
			Kind: "fault", Bench: "art", Workers: 3, Seed: 42,
			Campaign: &CampaignSpec{
				Faults: 12, Window: 125_000, NoVerify: true, Fields: true,
				Checkpoint: true, PCFaults: 5, CacheFaults: 6, RenameFaults: 7,
				SnapshotInterval: -1,
			},
			JSONPath: "out.json", ManifestPath: "m.json", Progress: true,
		},
		{
			Kind: "char", Budget: 123, Workers: 2,
			Char: &CharSpec{Fig: 3, Table1: true},
		},
		{
			Kind: "coverage", Budget: 456, Warmup: 789,
			Coverage: &CoverageSpec{Metric: "detection", Headline: true, Ablation: true},
		},
		{
			Kind: "dump", Bench: "gap", Budget: 1000,
			Dump: &DumpSpec{Dis: true, From: 7, N: 9, Traces: true},
		},
		{
			Kind: "energy", Budget: 2000,
			Energy: &EnergySpec{Scale: -1, Baselines: true, Perf: true, PerfCycles: 99},
		},
		{
			Kind: "sim", Bench: "vortex",
			Sim: &SimSpec{Asm: "a.s", Profile: "p.json", Cycles: 77, PrintSignals: true, NoITR: true, Inject: 3, Bit: 11},
		},
	}
	for _, want := range specs {
		blob, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", want.Kind, err)
		}
		got, err := ParseSpec(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: parse: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

// TestSpecNormalizedDefaults pins the per-kind defaults to the values the
// legacy standalone binaries used.
func TestSpecNormalizedDefaults(t *testing.T) {
	fault := DefaultSpec("fault")
	if fault.Campaign.Faults != 100 || fault.Campaign.Window != 250_000 || fault.Seed != 0x17b {
		t.Errorf("fault defaults = faults %d, window %d, seed %#x; want 100, 250000, 0x17b",
			fault.Campaign.Faults, fault.Campaign.Window, fault.Seed)
	}
	sim := DefaultSpec("sim")
	if sim.Sim.Cycles != 500_000 || sim.Sim.Bit != 36 || sim.Bench != "bzip" {
		t.Errorf("sim defaults = cycles %d, bit %d, bench %q; want 500000, 36, bzip",
			sim.Sim.Cycles, sim.Sim.Bit, sim.Bench)
	}
	dump := DefaultSpec("dump")
	if dump.Dump.N != 32 || dump.Budget != 1_000_000 || dump.Bench != "bzip" {
		t.Errorf("dump defaults = n %d, budget %d, bench %q; want 32, 1000000, bzip",
			dump.Dump.N, dump.Budget, dump.Bench)
	}
	energy := DefaultSpec("energy")
	if energy.Energy.Scale != 200_000_000 || energy.Energy.PerfCycles != 300_000 {
		t.Errorf("energy defaults = scale %d, perfCycles %d; want 200000000, 300000",
			energy.Energy.Scale, energy.Energy.PerfCycles)
	}
	cov := DefaultSpec("coverage")
	if cov.Coverage.Metric != "both" || cov.Budget != workload.DefaultBudget {
		t.Errorf("coverage defaults = metric %q, budget %d; want both, %d",
			cov.Coverage.Metric, cov.Budget, workload.DefaultBudget)
	}
	char := DefaultSpec("char")
	if char.Budget != workload.DefaultBudget {
		t.Errorf("char default budget = %d; want %d", char.Budget, workload.DefaultBudget)
	}

	// Normalizing twice must be a no-op.
	if again := fault.Normalized(); !reflect.DeepEqual(again, fault) {
		t.Errorf("Normalized is not idempotent:\n got %+v\nwant %+v", again, fault)
	}
}

// TestParseSpecRejects covers the failure modes that should fail loudly
// instead of silently running a default scenario.
func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name, blob, wantErr string
	}{
		{"missing kind", `{}`, "missing"},
		{"unknown kind", `{"kind": "warp"}`, "unknown kind"},
		{"meta kind run", `{"kind": "run"}`, "unknown kind"},
		{"unknown field", `{"kind": "fault", "faultz": 3}`, "unknown field"},
		{"misplaced section", `{"kind": "fault", "campaign": {"windowz": 1}}`, "unknown field"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(strings.NewReader(tc.blob))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v; want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestSpecSnapshotIntervalConvention pins the flag convention shared
// with -snapshot-interval: zero means the default, negative disables.
func TestSpecSnapshotIntervalConvention(t *testing.T) {
	blob := `{"kind": "fault", "campaign": {"snapshotInterval": -1}}`
	s, err := ParseSpec(strings.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if s.Campaign.SnapshotInterval != -1 {
		t.Fatalf("snapshotInterval = %d; want -1", s.Campaign.SnapshotInterval)
	}
}
