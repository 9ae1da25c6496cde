package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"itr/internal/isa"
	"itr/internal/obs"
	"itr/internal/program"
	"itr/internal/workload"
)

// TestRunCampaignsMatchesRunCampaign: scheduling benchmarks with overlapped
// pilots changes nothing about any benchmark's result — Details, Budget and
// snapshot counts equal one RunCampaign per benchmark at every width (16
// exceeds the Faults+1 jobs of each pool), with a tracer attached whose
// worker rings are numbered below the width. A failing benchmark returns the lowest-index error and
// leaves no goroutine behind.
func TestRunCampaignsMatchesRunCampaign(t *testing.T) {
	var benches []Benchmark
	for _, name := range []string{"gap", "vortex", "swim"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.CachedProgram(prof)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, Benchmark{Name: name, Prog: prog})
	}
	base := DefaultCampaignConfig()
	base.Faults = 8
	base.Experiment.WindowCycles = 15_000

	want := make([]CampaignResult, len(benches))
	for i, b := range benches {
		res, err := RunCampaign(b.Name, b.Prog, base)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 2, 4, 16} {
		cfg := base
		cfg.Workers = workers
		cfg.Tracer = obs.NewTracer(1 << 12)
		var timed []string
		got, err := RunCampaigns(benches, cfg, func(name string, elapsed time.Duration) {
			if elapsed <= 0 {
				t.Errorf("workers=%d: %s timed at %v", workers, name, elapsed)
			}
			timed = append(timed, name)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := []string{"gap", "vortex", "swim"}; !reflect.DeepEqual(timed, want) {
			t.Errorf("workers=%d: timed %v, want %v", workers, timed, want)
		}
		for i := range benches {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: %s differs from RunCampaign:\n got %+v\nwant %+v",
					workers, benches[i].Name, got[i], want[i])
			}
		}
		rings := 0
		for _, name := range ringNames(t, cfg.Tracer) {
			var w int
			if _, err := fmt.Sscanf(name, "fault-worker-%d", &w); err == nil {
				rings++
				if w >= workers {
					t.Errorf("workers=%d: ring %s", workers, name)
				}
			}
		}
		if rings == 0 {
			t.Errorf("workers=%d: no worker rings", workers)
		}
		if want[0].Snapshots == 0 {
			t.Errorf("%s retained no snapshots; the fast path did not engage", benches[0].Name)
		}
	}

	// A program that halts at once is too small to plan in any window.
	b := program.NewBuilder("halt")
	b.OpImm(isa.OpAddi, 1, 0, 1)
	b.Halt()
	halt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, failing := range [][]Benchmark{
		{benches[0], {"bad-1", halt}, {"bad-2", halt}},
		{{"bad-0", halt}, benches[1], {"bad-2", halt}},
	} {
		for _, workers := range []int{1, 2, 4} {
			cfg := base
			cfg.Workers = workers
			_, err := RunCampaigns(failing, cfg, nil)
			var first string
			for _, fb := range failing {
				if strings.HasPrefix(fb.Name, "bad") {
					first = fb.Name
					break
				}
			}
			if err == nil || !strings.HasPrefix(err.Error(), first+": campaign: window too small") {
				t.Errorf("workers=%d: err = %v, want %s's window error", workers, err, first)
			}
		}
	}
	// A goroutine that has delivered its result may still be exiting, so
	// wait (boundedly) for the count to settle.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after failing campaigns, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// ringNames returns the labels of tr's rings, read from its Chrome export.
func ringNames(t *testing.T, tr *obs.Tracer) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if e.Name == "thread_name" {
			names = append(names, e.Args["name"].(string))
		}
	}
	return names
}
