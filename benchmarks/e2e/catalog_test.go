package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json this
// program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecFilesMatchBenchmarkWorkloads(t *testing.T) {
	ws, err := loadWorkloads() // parses every file with experiment.ParseSpec
	if err != nil {
		t.Fatal(err)
	}
	var got, listed []string
	for _, w := range ws {
		got = append(got, w.Name)
		if tracedWorkloads[w.Name] == nil {
			t.Errorf("workload %s has no traced decomposition", w.Name)
		}
		if _, err := workloadProfiles(w); err != nil {
			t.Error(err)
		}
	}
	for _, w := range readBenchmarkJSON(t).Workloads {
		listed = append(listed, w.Name)
	}
	slices.Sort(listed)
	if !slices.Equal(got, listed) {
		t.Errorf("spec directories %v, BENCHMARK.json workloads %v", got, listed)
	}
	if len(tracedWorkloads) != len(ws) {
		t.Errorf("%d traced decompositions for %d workloads", len(tracedWorkloads), len(ws))
	}
}

func TestExpectedDigestsCoverEverySpec(t *testing.T) {
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	exps, err := loadExpectations("")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, bs := range w.Specs {
			if len(exps[0].Workloads[w.Name].Digests[bs.File]) == 0 {
				t.Errorf("expected.json has no digests for %s/%s", w.Name, bs.File)
			}
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, caps are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad metric %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !declared(endToEnd, "setup_s") {
		t.Error("setup_s is not an end-to-end metric")
	}

	b := readBenchmarkJSON(t)
	check := func(kind string, code []metricDef, file []struct{ Name, Unit, Better string }) {
		if len(code) != len(file) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(code), len(file))
			return
		}
		for i, m := range code {
			f := file[i]
			if m.Name != f.Name || m.Unit != f.Unit || m.Better != f.Better {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", kind, i, m, f)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}
