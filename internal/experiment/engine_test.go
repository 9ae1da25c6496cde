package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"itr/internal/fault"
)

// TestManifestGolden pins the manifest wire shape against a checked-in
// fixture: any field rename, omission or reordering shows up as a diff.
func TestManifestGolden(t *testing.T) {
	m := Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Spec: Spec{
			Kind: "fault", Bench: "art", Seed: 0x17b,
			Campaign: &CampaignSpec{Faults: 12, Window: 250_000},
		},
		Version:          "0123456789ab+dirty",
		Started:          "2026-01-02T03:04:05Z",
		WallClockSeconds: 2.5,
		Workers:          4,
		SnapshotInterval: fault.DefaultSnapshotInterval,
		Stages: []StageTiming{
			{Name: "campaign", Seconds: 2.4, OutputDigest: "00000000deadbeef"},
		},
		Benchmarks: []BenchTiming{
			{Name: "art", Seconds: 2.3, Items: 1},
		},
		Telemetry: Telemetry{
			CyclesSimulated:      1000,
			DecodeEvents:         4000,
			SnapshotRestores:     24,
			SnapshotCaptures:     6,
			SnapshotPagesShared:  5,
			SnapshotPagesCopied:  3,
			SnapshotBytesCopied:  12288,
			SnapshotChunksShared: 700,
			SnapshotChunksCopied: 68,
			Injections:           12,
			InjectionsPerSec:     4.8,
		},
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "manifest.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate by updating %s to the got bytes): %v\ngot:\n%s", golden, err, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("manifest encoding drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestEngineFaultRun drives a tiny real campaign through the engine and
// checks the manifest records what actually happened: the spec echo, the
// stage list, per-benchmark timings and the injection telemetry.
func TestEngineFaultRun(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "manifest.json")
	spec := Spec{
		Kind:  "fault",
		Bench: "art",
		Campaign: &CampaignSpec{
			Faults: 3,
			Window: 20_000,
		},
		ManifestPath: manifestPath,
	}

	var out, errw bytes.Buffer
	eng := New(spec, &out, &errw)
	if err := eng.Run(); err != nil {
		t.Fatalf("engine run: %v\nstderr: %s", err, errw.String())
	}
	if !strings.Contains(out.String(), "Figure 8. Fault injection results: 3 faults/benchmark, 20000-cycle window") {
		t.Errorf("missing campaign header in output:\n%s", out.String())
	}

	blob, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatalf("manifest parse: %v", err)
	}
	if m.SchemaVersion != ManifestSchemaVersion {
		t.Errorf("schemaVersion = %d; want %d", m.SchemaVersion, ManifestSchemaVersion)
	}
	if m.Spec.Kind != "fault" || m.Spec.Bench != "art" || m.Spec.Campaign == nil || m.Spec.Campaign.Faults != 3 {
		t.Errorf("spec echo wrong: %+v", m.Spec)
	}
	if m.Spec.Seed != 0x17b {
		t.Errorf("spec echo should carry the normalized seed, got %#x", m.Spec.Seed)
	}
	if m.SnapshotInterval != fault.DefaultSnapshotInterval {
		t.Errorf("snapshotInterval = %d; want default %d", m.SnapshotInterval, fault.DefaultSnapshotInterval)
	}
	if len(m.Stages) != 1 || m.Stages[0].Name != "campaign" {
		t.Fatalf("stages = %+v; want one campaign stage", m.Stages)
	}
	if m.Stages[0].Seconds <= 0 || len(m.Stages[0].OutputDigest) != 16 {
		t.Errorf("campaign stage not timed/digested: %+v", m.Stages[0])
	}
	if len(m.Benchmarks) != 1 || m.Benchmarks[0].Name != "art" || m.Benchmarks[0].Items != 1 {
		t.Errorf("benchmarks = %+v; want one art entry", m.Benchmarks)
	}
	tl := m.Telemetry
	if tl.Injections != 3 {
		t.Errorf("injections = %d; want 3 (one per requested fault)", tl.Injections)
	}
	if tl.InjectionsPerSec <= 0 {
		t.Errorf("injectionsPerSec = %v; want > 0", tl.InjectionsPerSec)
	}
	if tl.CyclesSimulated <= 0 || tl.DecodeEvents <= 0 {
		t.Errorf("pipeline telemetry empty: %+v", tl)
	}
	if tl.SnapshotCaptures <= 0 {
		t.Errorf("snapshotCaptures = %d; want > 0 (pilot drops snapshots at the default interval)", tl.SnapshotCaptures)
	}
	if tl.SnapshotPagesCopied < 0 || tl.SnapshotBytesCopied != tl.SnapshotPagesCopied*4096 {
		t.Errorf("COW telemetry inconsistent: %d pages, %d bytes", tl.SnapshotPagesCopied, tl.SnapshotBytesCopied)
	}
	if tl.SnapshotChunksShared <= 0 || tl.SnapshotChunksCopied <= 0 {
		t.Errorf("table chunk telemetry: %d shared, %d copied; want both > 0", tl.SnapshotChunksShared, tl.SnapshotChunksCopied)
	}
	if m.WallClockSeconds <= 0 {
		t.Errorf("wallClockSeconds = %v; want > 0", m.WallClockSeconds)
	}
}

// TestEngineManifestNone checks "-manifest none" leaves no file behind.
func TestEngineManifestNone(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	spec := Spec{
		Kind:         "sim",
		Sim:          &SimSpec{Cycles: 20_000},
		ManifestPath: "none",
	}
	var out bytes.Buffer
	if err := New(spec, &out, &out).Run(); err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if !strings.Contains(out.String(), "ITR checker:") {
		t.Errorf("sim output missing checker stats:\n%s", out.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("manifest none still wrote files: %v", entries)
	}
}

// TestEngineRunSpecFile exercises the `itr run -spec` path end to end
// through Main: a spec file on disk drives the engine, CLI overrides win.
func TestEngineRunSpecFile(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "sim.json")
	manifestPath := filepath.Join(dir, "m.json")
	blob := `{"kind": "sim", "sim": {"cycles": 20000}}`
	if err := os.WriteFile(specPath, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errw bytes.Buffer
	code := Main([]string{"run", "-spec", specPath, "-manifest", manifestPath}, &out, &errw)
	if code != 0 {
		t.Fatalf("itr run exit = %d\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "cycles:") {
		t.Errorf("run output missing sim report:\n%s", out.String())
	}
	blob2, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest override not honored: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(blob2, &m); err != nil {
		t.Fatal(err)
	}
	if m.Spec.Kind != "sim" || m.Spec.Sim == nil || m.Spec.Sim.Cycles != 20_000 {
		t.Errorf("spec echo wrong: %+v", m.Spec)
	}
	if m.Telemetry.CyclesSimulated <= 0 {
		t.Errorf("sim telemetry empty: %+v", m.Telemetry)
	}

	// A missing -spec flag is a usage error, not a crash.
	errw.Reset()
	if code := Main([]string{"run"}, &out, &errw); code != 1 {
		t.Errorf("run without -spec exit = %d; want 1", code)
	}
}

// TestDumpTracesDeterministic runs the same trace-table dump three times:
// the table's rows come from a map, and rows tied on instruction count
// must still print in one order, so every run has the same stage digest.
func TestDumpTracesDeterministic(t *testing.T) {
	var digests []string
	for run := 0; run < 3; run++ {
		spec := Spec{Kind: "dump", Bench: "gcc", Budget: 200_000, ManifestPath: "none", Dump: &DumpSpec{Traces: true}}
		var out, errw bytes.Buffer
		eng := New(spec, &out, &errw)
		if err := eng.Run(); err != nil {
			t.Fatalf("dump run: %v\nstderr: %s", err, errw.String())
		}
		stages := eng.Manifest().Stages
		if len(stages) != 1 {
			t.Fatalf("stages = %+v; want one inspect stage", stages)
		}
		digests = append(digests, stages[0].OutputDigest)
	}
	for i, d := range digests[1:] {
		if d != digests[0] {
			t.Errorf("run %d digest %s differs from run 0's %s", i+1, d, digests[0])
		}
	}
}
