package main

import (
	"bytes"
	"embed"
	"fmt"
	"path"
	"sort"

	"itr/internal/experiment"
	"itr/internal/workload"
)

// specFS holds one directory per workload; each file in it is an
// `itr run -spec` file, run in file-name order.
//
//go:embed specs
var specFS embed.FS

// benchSpec is one spec file of a workload.
type benchSpec struct {
	File string // file name within the workload directory
	Spec experiment.Spec
}

// workloadDef is one named workload: the spec files a sample runs in order.
type workloadDef struct {
	Name  string
	Specs []benchSpec
}

// loadWorkloads parses every spec file, returning the workloads in name order.
func loadWorkloads() ([]workloadDef, error) {
	dirs, err := specFS.ReadDir("specs")
	if err != nil {
		return nil, err
	}
	var out []workloadDef
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		w := workloadDef{Name: d.Name()}
		files, err := specFS.ReadDir(path.Join("specs", d.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			p := path.Join("specs", d.Name(), f.Name())
			raw, err := specFS.ReadFile(p)
			if err != nil {
				return nil, err
			}
			s, err := experiment.ParseSpec(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			w.Specs = append(w.Specs, benchSpec{File: f.Name(), Spec: s})
		}
		if len(w.Specs) == 0 {
			return nil, fmt.Errorf("workload %s has no spec files", w.Name)
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// selectWorkloads returns the named workload, or all of them for "".
func selectWorkloads(all []workloadDef, name string) ([]workloadDef, error) {
	if name == "" {
		return all, nil
	}
	for _, w := range all {
		if w.Name == name {
			return []workloadDef{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seeded returns the spec with the benchmark seed applied. Only fault
// campaigns sample randomly; every other kind ignores the seed.
func seeded(s experiment.Spec, seed uint64) experiment.Spec {
	if s.Kind == "fault" {
		s.Seed = seed
	}
	return s.Normalized()
}

// seedDependent reports whether a spec's output changes with the seed.
func seedDependent(s experiment.Spec) bool { return s.Kind == "fault" }

// specProfiles lists the benchmark programs a spec builds, mirroring each
// command's default suite.
func specProfiles(s experiment.Spec) ([]workload.Profile, error) {
	s = s.Normalized()
	if s.Bench != "" {
		p, err := workload.ByName(s.Bench)
		if err != nil {
			return nil, err
		}
		return []workload.Profile{p}, nil
	}
	switch s.Kind {
	case "char", "energy":
		return workload.Suite(), nil
	case "coverage", "fault":
		return workload.CoverageSuite(), nil
	}
	return nil, fmt.Errorf("no profile set for spec kind %q", s.Kind)
}

// workloadProfiles is the union of the programs a workload's specs build, in
// first-use order.
func workloadProfiles(w workloadDef) ([]workload.Profile, error) {
	seen := make(map[string]bool)
	var out []workload.Profile
	for _, bs := range w.Specs {
		ps, err := specProfiles(bs.Spec)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, bs.File, err)
		}
		for _, p := range ps {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p)
			}
		}
	}
	return out, nil
}
