package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// faultSpec returns a tiny fault spec the observability tests share.
func faultSpec(manifestPath string) Spec {
	return Spec{
		Kind:         "fault",
		Bench:        "art",
		Campaign:     &CampaignSpec{Faults: 3, Window: 20_000},
		ManifestPath: manifestPath,
	}
}

// TestStageDigestsExactAcrossRuns pins the digest-exactness contract: the
// same spec run twice produces byte-identical stage digests even though the
// human-readable output carries a wall-clock timing that differs between
// runs — the decoration is routed around the digest, not hashed "modulo"
// anything. The fields case prints the per-field injection table, whose
// rows come from a map and must still print in one order. The checkpoint
// case runs the Section 2.3 checkpointed verify on vortex, where rollback
// recovers a detection-only fault.
func TestStageDigestsExactAcrossRuns(t *testing.T) {
	fields := func(mp string) Spec {
		return Spec{
			Kind:         "fault",
			Bench:        "gap",
			Workers:      2,
			Campaign:     &CampaignSpec{Faults: 20, Window: 50_000, Fields: true},
			ManifestPath: mp,
		}
	}
	checkpoint := func(mp string) Spec {
		return Spec{
			Kind:         "fault",
			Bench:        "vortex",
			Workers:      2,
			Campaign:     &CampaignSpec{Faults: 10, Window: 40_000, Checkpoint: true},
			ManifestPath: mp,
		}
	}
	for _, tc := range []struct {
		name string
		spec func(manifestPath string) Spec
	}{
		{"default", faultSpec},
		{"fields", fields},
		{"checkpoint", checkpoint},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(name string) (Manifest, string) {
				t.Helper()
				mp := filepath.Join(dir, name)
				var out, errw bytes.Buffer
				if err := New(tc.spec(mp), &out, &errw).Run(); err != nil {
					t.Fatalf("engine run: %v\nstderr: %s", err, errw.String())
				}
				blob, err := os.ReadFile(mp)
				if err != nil {
					t.Fatal(err)
				}
				var m Manifest
				if err := json.Unmarshal(blob, &m); err != nil {
					t.Fatal(err)
				}
				return m, out.String()
			}

			a, outA := run("a.json")
			b, _ := run("b.json")

			if !strings.Contains(outA, " in ") {
				t.Errorf("output lost its wall-clock decoration:\n%s", outA)
			}
			if tc.name == "fields" && !strings.Contains(outA, "Injections by Table 2 field:") {
				t.Errorf("output lacks the per-field table:\n%s", outA)
			}
			if tc.name == "checkpoint" && !strings.Contains(outA, "Checkpoint extension:") {
				t.Errorf("output lacks the checkpoint recovery line:\n%s", outA)
			}
			if len(a.Stages) == 0 || len(a.Stages) != len(b.Stages) {
				t.Fatalf("stage lists differ: %d vs %d", len(a.Stages), len(b.Stages))
			}
			for i := range a.Stages {
				if a.Stages[i].OutputDigest != b.Stages[i].OutputDigest {
					t.Errorf("stage %s digest not reproducible: %s vs %s",
						a.Stages[i].Name, a.Stages[i].OutputDigest, b.Stages[i].OutputDigest)
				}
			}
		})
	}
}

// TestEngineTraceAndTelemetry runs a campaign with the trace exporter and
// the live telemetry endpoint enabled, and checks the side artifacts: the
// manifest echoes the bound address, and the Chrome trace JSON parses with
// a non-empty event list naming the campaign worker threads.
func TestEngineTraceAndTelemetry(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	spec := faultSpec(filepath.Join(dir, "m.json"))
	spec.TraceOut = tracePath
	spec.TelemetryAddr = "127.0.0.1:0"

	var out, errw bytes.Buffer
	if err := New(spec, &out, &errw).Run(); err != nil {
		t.Fatalf("engine run: %v\nstderr: %s", err, errw.String())
	}
	if !strings.Contains(errw.String(), "telemetry: serving /metrics") {
		t.Errorf("missing telemetry banner on stderr:\n%s", errw.String())
	}

	blob, err := os.ReadFile(spec.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m.TelemetryAddr == "" || m.TelemetryAddr == "127.0.0.1:0" {
		t.Errorf("manifest telemetryAddr = %q; want the resolved listen address", m.TelemetryAddr)
	}

	tblob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tblob, &trace); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var names, spans int
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			names++
		}
		if e.Ph == "X" {
			spans++
		}
	}
	if names == 0 {
		t.Error("trace has no thread_name metadata")
	}
	if spans == 0 {
		t.Error("trace has no stage spans")
	}
}

// TestShootoutLatencyColumns drives a minimal two-backend shootout and
// checks that the latency columns reach both the table and the manifest's
// detector comparison.
func TestShootoutLatencyColumns(t *testing.T) {
	dir := t.TempDir()
	mp := filepath.Join(dir, "m.json")
	spec := Spec{
		Kind:  "shootout",
		Bench: "art",
		Shootout: &ShootoutSpec{
			Faults:   3,
			Window:   20_000,
			Backends: "itr,dme",
			Scale:    1_000_000,
		},
		Budget:       200_000,
		ManifestPath: mp,
	}

	var out, errw bytes.Buffer
	if err := New(spec, &out, &errw).Run(); err != nil {
		t.Fatalf("engine run: %v\nstderr: %s", err, errw.String())
	}
	if !strings.Contains(out.String(), "lat p50 (cyc)") || !strings.Contains(out.String(), "lat p99 (cyc)") {
		t.Errorf("shootout table missing latency columns:\n%s", out.String())
	}

	blob, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Detectors) != 2 {
		t.Fatalf("manifest detectors = %+v; want 2 entries", m.Detectors)
	}
	for _, d := range m.Detectors {
		if d.Detections > 0 && (d.LatencyP50Cycles <= 0 || d.LatencyP99Cycles < d.LatencyP50Cycles) {
			t.Errorf("backend %s latency quantiles implausible: p50=%d p99=%d",
				d.Name, d.LatencyP50Cycles, d.LatencyP99Cycles)
		}
	}
}
