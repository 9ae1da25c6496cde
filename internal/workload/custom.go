package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// profileJSON is the on-disk form of a custom benchmark profile. Example:
//
//	{
//	  "name": "mydb",
//	  "fp": false,
//	  "staticTraces": 1200,
//	  "seed": 42,
//	  "components": [
//	    {"traces": 30, "iters": 200},
//	    {"traces": 400, "iters": 3},
//	    {"traces": 300, "iters": 1}
//	  ]
//	}
type profileJSON struct {
	Name         string `json:"name"`
	FP           bool   `json:"fp"`
	StaticTraces int    `json:"staticTraces"`
	Seed         uint64 `json:"seed"`
	BudgetScale  int    `json:"budgetScale,omitempty"`
	Components   []struct {
		Traces int `json:"traces"`
		Iters  int `json:"iters"`
	} `json:"components"`
}

// ParseProfile reads a custom benchmark profile from JSON. The profile can
// then be synthesized with Build and run through every experiment exactly
// like the built-in SPEC2K stand-ins.
func ParseProfile(r io.Reader) (Profile, error) {
	var pj profileJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pj); err != nil {
		return Profile{}, fmt.Errorf("parse profile: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Profile{}, fmt.Errorf("parse profile: data after the profile object")
	}
	p := Profile{
		Name:         pj.Name,
		FP:           pj.FP,
		StaticTraces: pj.StaticTraces,
		Seed:         pj.Seed,
		BudgetScale:  pj.BudgetScale,
	}
	for _, c := range pj.Components {
		p.Components = append(p.Components, Component{Traces: c.Traces, Iters: c.Iters})
	}
	if err := ValidateProfile(p); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// ValidateProfile checks a profile's structural feasibility before Build
// assembles it: it rejects exactly the static trace targets Build cannot
// meet, and every layout with a branch that could exceed its 16-bit
// displacement (reckoning each body trace at its longest).
func ValidateProfile(p Profile) error {
	if p.Name == "" {
		return fmt.Errorf("profile needs a name")
	}
	if len(p.Components) == 0 {
		return fmt.Errorf("profile %s: at least one component required", p.Name)
	}
	for i, c := range p.Components {
		if c.Traces < 1 {
			return fmt.Errorf("profile %s: component %d has %d traces", p.Name, i, c.Traces)
		}
		if c.Iters < 0 {
			return fmt.Errorf("profile %s: component %d has negative iterations", p.Name, i)
		}
		// The inner-loop counter is loaded from a 16-bit signed immediate.
		if c.Iters > math.MaxInt16 {
			return fmt.Errorf("profile %s: component %d has %d iterations, above the limit %d",
				p.Name, i, c.Iters, math.MaxInt16)
		}
		if c.Traces > maxBranchTraces {
			return fmt.Errorf("profile %s: component %d has %d traces, above the loop-branch limit %d",
				p.Name, i, c.Traces, maxBranchTraces)
		}
	}
	cold := coldTraces(p)
	if cold < 0 {
		hot := p.HotTraces()
		return fmt.Errorf("profile %s: staticTraces %d below hot traces %d + overhead %d",
			p.Name, p.StaticTraces, hot, p.StaticTraces-hot-cold)
	}
	if cold > runOnceColdMax {
		if per := maxSliceBodies(cold); per > maxBranchTraces {
			return fmt.Errorf("profile %s: staticTraces %d puts %d cold traces in one slice, above the slice-guard limit %d",
				p.Name, p.StaticTraces, per, maxBranchTraces)
		}
	}
	return nil
}

// MarshalProfile renders a profile as JSON (the inverse of ParseProfile).
func MarshalProfile(p Profile) ([]byte, error) {
	pj := profileJSON{
		Name:         p.Name,
		FP:           p.FP,
		StaticTraces: p.StaticTraces,
		Seed:         p.Seed,
		BudgetScale:  p.BudgetScale,
	}
	for _, c := range p.Components {
		pj.Components = append(pj.Components, struct {
			Traces int `json:"traces"`
			Iters  int `json:"iters"`
		}{c.Traces, c.Iters})
	}
	return json.MarshalIndent(pj, "", "  ")
}
