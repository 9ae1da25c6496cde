package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"itr/internal/core"
	"itr/internal/fault"
	"itr/internal/stats"
)

func TestEncodeSeriesRoundTrip(t *testing.T) {
	fig := EncodeSeries("figure1", "test figure", "top-k", "%", []stats.Series{
		{Name: "bzip", Points: []stats.Point{{X: 100, Y: 99}, {X: 200, Y: 100}}},
	})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, fig); err != nil {
		t.Fatal(err)
	}
	var back FigureJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "figure1" || len(back.Series) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	s := back.Series[0]
	if s.Name != "bzip" || len(s.X) != 2 || s.Y[0] != 99 {
		t.Fatalf("series: %+v", s)
	}
}

func TestEncodeCoverage(t *testing.T) {
	cells := []CoverageCell{{
		Benchmark: "vortex",
		Config:    core.Config{Entries: 1024, Assoc: 2},
		Result:    core.Result{DetectionLoss: 8.2, RecoveryLoss: 15, TotalInsts: 100},
	}}
	out := EncodeCoverage(cells)
	if len(out) != 1 || out[0].Config != "2-way/1024" || out[0].DetectionLoss != 8.2 {
		t.Fatalf("encode: %+v", out)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, out); err != nil {
		t.Fatal(err)
	}
	var back []CoverageJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back[0].RecoveryLoss != 15 {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestEncodeCampaigns(t *testing.T) {
	rows := []Figure8Row{{
		Benchmark: "gap",
		Result: fault.CampaignResult{
			Benchmark: "gap",
			Total:     100,
			Counts:    map[fault.Category]int{fault.ITRMask: 60, fault.ITRSDCR: 30},
		},
	}}
	out := EncodeCampaigns(rows)
	if len(out) != 1 || out[0].Detected != 90 {
		t.Fatalf("encode: %+v", out)
	}
	if out[0].Categories[string(fault.ITRMask)] != 60 {
		t.Fatalf("categories: %+v", out[0].Categories)
	}
	// All ten categories present (zeros included).
	if len(out[0].Categories) != 10 {
		t.Fatalf("category count: %d", len(out[0].Categories))
	}
}

// TestArtifactJSONGolden pins the wire bytes of the Table 1, Section 3
// headline, Figure 9 and perf sections that itr char, itr coverage
// -headline and itr energy -perf write with -json.
func TestArtifactJSONGolden(t *testing.T) {
	art := ArtifactJSON{
		Table1: []Table1Row{
			{Benchmark: "gcc", Suite: "SPECint", Measured: 1234, Paper: 5678},
			{Benchmark: "swim", Suite: "SPECfp", Measured: 12, Paper: 34},
		},
		Headline: &Headline{
			AvgDetectionLoss: 1.3, MaxDetectionLoss: 8.2, MaxDetectionName: "vortex",
			AvgRecoveryLoss: 2.5, MaxRecoveryLoss: 15, MaxRecoveryName: "vortex",
		},
		Energy: []Figure9Row{{Benchmark: "art", ITRSinglePort: 1.5, ITRDualPort: 2.25, ICacheRedFetch: 10}},
		Perf:   []PerfRow{{Benchmark: "gap", BaseIPC: 2.5, ITRIPC: 2.4, DualDecodeIPC: 2.5, TimeRedundantIPC: 1.25}},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, art); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "table1": [
    {
      "benchmark": "gcc",
      "suite": "SPECint",
      "measured": 1234,
      "paper": 5678
    },
    {
      "benchmark": "swim",
      "suite": "SPECfp",
      "measured": 12,
      "paper": 34
    }
  ],
  "headline": {
    "avgDetectionLossPct": 1.3,
    "maxDetectionLossPct": 8.2,
    "maxDetectionBenchmark": "vortex",
    "avgRecoveryLossPct": 2.5,
    "maxRecoveryLossPct": 15,
    "maxRecoveryBenchmark": "vortex"
  },
  "energy": [
    {
      "benchmark": "art",
      "itrSinglePortMJ": 1.5,
      "itrDualPortMJ": 2.25,
      "icacheRedundantFetchMJ": 10
    }
  ],
  "perf": [
    {
      "benchmark": "gap",
      "baseIPC": 2.5,
      "itrIPC": 2.4,
      "dualDecodeIPC": 2.5,
      "timeRedundantIPC": 1.25
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Fatalf("artifact JSON:\n%s\nwant:\n%s", got, want)
	}
}
