package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"

	"itr/internal/experiment"
	"itr/internal/workload"
)

// digestSet maps a workload's spec file to its manifest stage digests.
type digestSet map[string]map[string]string

// sampleRecord is what an untraced child reports: one run of every spec of
// a workload through experiment.Engine, exactly as `itr run -spec` does.
type sampleRecord struct {
	SetupS  float64   `json:"setup_s"`
	WallS   float64   `json:"wall_s"`
	Digests digestSet `json:"digests"`
	Errors  []string  `json:"errors,omitempty"`
}

// buildPrograms synthesizes the workload's programs into the process-wide
// memo, so the artifact calls that follow find them built.
func buildPrograms(w workloadDef) (n int, d time.Duration, err error) {
	profiles, err := workloadProfiles(w)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, p := range profiles {
		if _, err := workload.CachedProgram(p); err != nil {
			return 0, 0, fmt.Errorf("build %s: %w", p.Name, err)
		}
	}
	return len(profiles), time.Since(start), nil
}

// runSample runs every spec of w once in this process.
func runSample(w workloadDef, seed uint64) sampleRecord {
	rec := sampleRecord{Digests: digestSet{}}
	_, setup, err := buildPrograms(w)
	if err != nil {
		rec.Errors = append(rec.Errors, err.Error())
		return rec
	}
	rec.SetupS = setup.Seconds()
	for _, bs := range w.Specs {
		spec := seeded(bs.Spec, seed)
		spec.ManifestPath = "none"
		e := experiment.New(spec, io.Discard, os.Stderr)
		start := time.Now()
		err := e.Run()
		rec.WallS += time.Since(start).Seconds()
		if err != nil {
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s: %v", bs.File, err))
			continue
		}
		stages := make(map[string]string)
		for _, st := range e.Manifest().Stages {
			stages[st.Name] = st.OutputDigest
		}
		rec.Digests[bs.File] = stages
	}
	return rec
}

// childTimeout bounds one child process, so a hung run cannot outlive the
// benchmark's own time limit.
const childTimeout = 150 * time.Second

// childResult is the resource usage of a finished child.
type childResult struct {
	CPUS       float64
	PeakRSSMiB float64
}

// runChild re-executes this binary in child mode for one workload and
// decodes the JSON record it prints into v. Each child starts with cold
// program and stream memos, as a CLI user's run does.
func runChild(w workloadDef, seed uint64, traced bool, v any) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", w.Name, "-seed", fmt.Sprint(seed), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", w.Name, err)
	}
	var res childResult
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		res.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(out, v); err != nil {
		return res, fmt.Errorf("%s child output: %w", w.Name, err)
	}
	return res, nil
}

// childMain is the child-process entry point: run one sample (or one traced
// pass) of the named workload and print its record on stdout.
func childMain(name string, seed uint64, traced bool) int {
	all, err := loadWorkloads()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ws, err := selectWorkloads(all, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var rec any
	if traced {
		rec = runTraced(ws[0], seed)
	} else {
		rec = runSample(ws[0], seed)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}
