// Package itr is a from-scratch reproduction of "Inherent Time Redundancy
// (ITR): Using Program Repetition for Low-Overhead Fault Tolerance"
// (Reddy and Rotenberg, DSN 2007).
//
// Programs execute the same static instruction traces repeatedly at short
// dynamic distances. Because decode signals depend only on the program
// text, a per-trace XOR signature of the decode-signal vector is invariant
// across instances: caching signatures in a small PC-indexed ITR cache and
// comparing them on every recurrence detects transient faults in the fetch
// and decode units at a fraction of the cost of structural duplication or
// full time-redundant execution.
//
// This package is a facade over the implementation packages:
//
//   - internal/isa       — the instruction set and Table 2 decode signals,
//     plus the copy-on-write memory and isa.Checkpoint, the one capture of
//     committed architectural state (Section 2.3's coarse-grain checkpoint)
//   - internal/program   — program IR, assembler-style builder, runner
//   - internal/workload  — SPEC2K stand-in benchmarks (Table 1 calibrated)
//   - internal/trace     — trace formation and repetition characterization
//   - internal/cache     — the set-associative cache engine
//   - internal/sig       — signature generation and protected control state
//   - internal/core      — the ITR cache, ITR ROB, checker and coverage sim
//   - internal/pipeline  — the cycle-level out-of-order core
//   - internal/fault     — fault injection campaigns (Figure 8)
//   - internal/energy    — CACTI-style energy/area models (Figure 9)
//   - internal/baseline  — structural duplication / time redundancy models
//   - internal/asm       — text assembler/disassembler for the ISA
//   - internal/report    — regeneration of every table and figure
//
// The `itr` CLI (subcommands char, coverage, fault, energy, sim, dump)
// prints the paper's tables and figures; the examples directory
// shows the library API on progressively richer scenarios, ending with
// examples/regimen — the full check regimen recovering three distinct
// fault types in one verified run.
package itr

import (
	"fmt"

	"itr/internal/core"
	"itr/internal/fault"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/report"
	"itr/internal/trace"
	"itr/internal/workload"
)

// Re-exported configuration types. These aliases make the common surface
// usable without importing internal packages directly in examples and
// benchmarks within this module.
type (
	// CacheConfig selects an ITR cache design point (size, associativity,
	// replacement, parity, miss fallback).
	CacheConfig = core.Config
	// CoverageResult reports detection/recovery coverage loss for one
	// benchmark and configuration.
	CoverageResult = core.Result
	// PipelineConfig sizes the cycle-level core.
	PipelineConfig = pipeline.Config
	// CampaignConfig parameterizes a fault-injection campaign.
	CampaignConfig = fault.CampaignConfig
	// CampaignResult aggregates a campaign's classified outcomes.
	CampaignResult = fault.CampaignResult
	// Benchmark describes one SPEC2K stand-in workload profile.
	Benchmark = workload.Profile
	// Program is an executable synthetic program.
	Program = program.Program
)

// DefaultBudget is the default dynamic-instruction budget per benchmark.
const DefaultBudget = workload.DefaultBudget

// DefaultCacheConfig returns the paper's headline ITR cache: 2-way set
// associative, 1024 signatures.
func DefaultCacheConfig() CacheConfig { return core.DefaultConfig() }

// DesignSpace returns the 18 cache configurations of the Section 3 sweep.
func DesignSpace() []CacheConfig { return core.DesignSpace() }

// Benchmarks returns all 16 SPEC2K stand-in profiles.
func Benchmarks() []Benchmark { return workload.Suite() }

// BenchmarkByName looks up one profile ("bzip" ... "wupwise").
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// BuildBenchmark synthesizes the program for a benchmark profile. The
// program contains exactly the profile's Table 1 static trace count.
func BuildBenchmark(b Benchmark) (*Program, error) { return workload.Build(b) }

// reports is the full-width report engine behind the facade. Its
// characterization memo lives for the process.
var reports = &report.Engine{}

// Characterize runs trace characterization (Figures 1-4, Table 1 metrics)
// for a benchmark at the given instruction budget. The result is memoized
// per (benchmark, budget) and shared between callers: treat it as read-only.
func Characterize(b Benchmark, budget int64) (*trace.Characterizer, error) {
	return reports.Characterization(b, budget)
}

// Coverage measures ITR coverage loss for one benchmark and cache
// configuration: the unit of Figures 6 and 7.
func Coverage(b Benchmark, cfg CacheConfig, budget int64) (CoverageResult, error) {
	cells, err := reports.CoverageSweepWarm([]workload.Profile{b}, []core.Config{cfg}, budget, 0)
	if err != nil {
		return CoverageResult{}, err
	}
	if len(cells) != 1 {
		return CoverageResult{}, fmt.Errorf("coverage: expected one cell, got %d", len(cells))
	}
	return cells[0].Result, nil
}

// InjectFaults runs a Section 4 fault-injection campaign on a benchmark.
func InjectFaults(b Benchmark, cfg CampaignConfig) (CampaignResult, error) {
	prog, err := workload.CachedProgram(b)
	if err != nil {
		return CampaignResult{}, err
	}
	return fault.RunCampaign(b.Name, prog, cfg)
}

// DefaultCampaign returns a scaled-down campaign configuration; raise
// Faults to 1000 and Experiment.WindowCycles to 1e6 for paper fidelity.
func DefaultCampaign() CampaignConfig { return fault.DefaultCampaignConfig() }

// NewCPU builds a cycle-level core over a program (ITR-protected by
// default).
func NewCPU(p *Program, cfg PipelineConfig) (*pipeline.CPU, error) {
	return pipeline.New(p, cfg)
}

// DefaultPipeline returns the 4-wide R10K-style core configuration with the
// paper's headline ITR cache attached.
func DefaultPipeline() PipelineConfig { return pipeline.DefaultConfig() }

// Version identifies this reproduction.
const Version = "1.0.0"
