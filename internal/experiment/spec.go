// Package experiment is the config-driven engine behind the unified `itr`
// CLI: a typed experiment Spec with JSON round-trip and flag binding, an
// Engine resolving specs into the report/fault/energy entry points, and a
// Manifest written alongside every run (spec echo, version, per-stage wall
// clock, worker width, per-benchmark timings, result digests, telemetry).
//
// The six paper commands (char, coverage, dump, energy, fault, sim) are
// subcommands registered here. Batch drivers build a Spec directly (or load
// one from JSON with ParseSpec) and hand it to an Engine — the CLI is just
// one thin producer of specs.
package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"itr/internal/workload"
)

// Spec declares one experiment scenario: which artifact to regenerate, over
// which workloads, at which scale, and with how much parallelism. The zero
// value of every field means "the command's documented default"; Normalized
// resolves them. Specs round-trip through JSON, so a run's manifest echoes
// a spec that reproduces it.
type Spec struct {
	// Kind selects the experiment: char, coverage, dump, energy, fault or
	// sim (the former standalone binaries).
	Kind string `json:"kind"`

	// Bench restricts the run to one benchmark (empty = the command's
	// default suite; dump and sim default to bzip).
	Bench string `json:"bench,omitempty"`
	// Budget is the dynamic-instruction budget per benchmark, scaled per
	// profile (0 = the command's default).
	Budget int64 `json:"budget,omitempty"`
	// Warmup primes the ITR cache before measurement (coverage only).
	Warmup int64 `json:"warmup,omitempty"`
	// Workers is the worker-pool width (0 = GOMAXPROCS). Results are
	// identical at any width. For fault it is the width of the Figure 8
	// pool, whose first job on each benchmark is the next benchmark's
	// pilot, and of the PC, cache and rename studies' pools; for sim it
	// caps runtime parallelism; dump ignores it.
	Workers int `json:"workers,omitempty"`
	// Seed makes fault-injection sampling reproducible (fault only;
	// 0 = the paper campaign seed 0x17b).
	Seed uint64 `json:"seed,omitempty"`
	// Detector selects the detection backend driven through the pipeline's
	// Detector seam: "itr" (default), "reptfd" (chunked replay) or "dme"
	// (divergent dual execution). Consulted by fault and sim; shootout runs
	// its own backend list instead.
	Detector string `json:"detector,omitempty"`

	// Exactly one of the sections below (matching Kind) is consulted;
	// Normalized allocates it.
	Char     *CharSpec     `json:"char,omitempty"`
	Coverage *CoverageSpec `json:"coverage,omitempty"`
	Dump     *DumpSpec     `json:"dump,omitempty"`
	Energy   *EnergySpec   `json:"energy,omitempty"`
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	Sim      *SimSpec      `json:"sim,omitempty"`
	Shootout *ShootoutSpec `json:"shootout,omitempty"`

	// JSONPath, when set, also writes the run's machine-readable artifacts
	// there (a report.ArtifactJSON bundle; fault keeps its legacy
	// campaign-array shape).
	JSONPath string `json:"jsonPath,omitempty"`
	// ManifestPath is where the run manifest is written. Empty means the
	// default, itr-<kind>-manifest.json in the working directory; "none"
	// disables the manifest.
	ManifestPath string `json:"manifestPath,omitempty"`
	// Progress enables a live telemetry ticker on stderr.
	Progress bool `json:"progress,omitempty"`
	// CPUProfile and MemProfile, when set, write pprof profiles of the run
	// there (CPU profile spanning the experiment; heap profile captured after
	// it finishes). Like the manifest they default to the working directory
	// when given bare file names.
	CPUProfile string `json:"cpuProfile,omitempty"`
	MemProfile string `json:"memProfile,omitempty"`
	// TelemetryAddr, when set, serves live run telemetry over HTTP for the
	// duration of the run: Prometheus-text metrics at /metrics, expvar at
	// /debug/vars, and net/http/pprof under /debug/pprof/. ":0" picks a
	// free port; the resolved address is echoed in the manifest.
	TelemetryAddr string `json:"telemetryAddr,omitempty"`
	// TraceOut, when set, writes a Chrome trace-event JSON timeline of the
	// run there (snapshot activity, detections, injections, sweep cells,
	// stage spans) — loadable in Perfetto or chrome://tracing.
	TraceOut string `json:"traceOut,omitempty"`

	// SpecPath is CLI plumbing for `itr run -spec`; it is not part of the
	// declarative spec.
	SpecPath string `json:"-"`
}

// CharSpec parameterizes the characterization command (Figures 1-4, Table 1).
type CharSpec struct {
	// Fig is the figure to reproduce (1-4); 0 prints everything.
	Fig int `json:"fig,omitempty"`
	// Table1 prints Table 1 (static trace counts).
	Table1 bool `json:"table1,omitempty"`
}

// CoverageSpec parameterizes the Section 3 design-space exploration
// (Figures 6-7).
type CoverageSpec struct {
	// Metric is "detection", "recovery" or "both" (the default).
	Metric string `json:"metric,omitempty"`
	// Headline prints the Section 3 summary for 2-way/1024 instead of the
	// full sweep.
	Headline bool `json:"headline,omitempty"`
	// Ablation also evaluates checked-LRU replacement and miss fallback.
	Ablation bool `json:"ablation,omitempty"`
}

// DumpSpec parameterizes the program inspector.
type DumpSpec struct {
	// Dis disassembles instructions starting at From, N of them.
	Dis  bool   `json:"dis,omitempty"`
	From uint64 `json:"from,omitempty"`
	N    int    `json:"n,omitempty"`
	// Traces prints the static trace table with signatures.
	Traces bool `json:"traces,omitempty"`
}

// EnergySpec parameterizes the Section 5 cost comparison (Figure 9).
type EnergySpec struct {
	// Scale scales access counts to this many instructions. 0 = default
	// 200M (the paper's window), negative = report at the measured budget.
	Scale int64 `json:"scale,omitempty"`
	// Baselines prints the full approach comparison per benchmark.
	Baselines bool `json:"baselines,omitempty"`
	// Perf measures IPC for each protection scheme on the cycle-level core,
	// over PerfCycles cycles per run (0 = default 300k).
	Perf       bool  `json:"perf,omitempty"`
	PerfCycles int64 `json:"perfCycles,omitempty"`
}

// CampaignSpec parameterizes the Section 4 fault-injection study (Figure 8).
type CampaignSpec struct {
	// Faults is the number of injections per benchmark (0 = default 100;
	// paper: 1000).
	Faults int `json:"faults,omitempty"`
	// Window is the observation window in cycles (0 = default 250k;
	// paper: 1M).
	Window int64 `json:"window,omitempty"`
	// NoVerify skips the full-protocol confirmation pass (verification is
	// on by default, as in the paper).
	NoVerify bool `json:"noVerify,omitempty"`
	// Fields also tallies injections by Table 2 field.
	Fields bool `json:"fields,omitempty"`
	// Checkpoint enables Section 2.3 checkpointed recovery in verify runs.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// PCFaults, CacheFaults and RenameFaults run the Section 2.5 PC-fault,
	// Section 2.4 ITR-cache-fault and rename-protection side studies with
	// that many injections per benchmark (0 = skip).
	PCFaults     int `json:"pcFaults,omitempty"`
	CacheFaults  int `json:"cacheFaults,omitempty"`
	RenameFaults int `json:"renameFaults,omitempty"`
	// SnapshotInterval is the decode-event spacing of pilot snapshots for
	// campaign fast-forward (0 = fault.DefaultSnapshotInterval, negative =
	// disabled); results are identical either way.
	SnapshotInterval int64 `json:"snapshotInterval,omitempty"`
	// LatencyHist prints the detection-latency distribution after the
	// campaign: log2-bucket tables of cycles and trace length (committed
	// instructions) from injection to first detection, with quantiles.
	LatencyHist bool `json:"latencyHist,omitempty"`
	// Exact switches off the decided-outcome engine's early exits: every
	// injection, in the campaign and in the PC, cache and rename studies,
	// simulates its full observation window instead of stopping once its
	// classification is settled. Results are identical either way; exact
	// mode exists as the reference path for identity checks.
	Exact bool `json:"exact,omitempty"`
}

// ShootoutSpec parameterizes the detector-backend comparison: the Figure 8
// campaign run once per backend plus the Figure 9-style energy estimate,
// reported side by side in one table.
type ShootoutSpec struct {
	// Faults is the number of injections per benchmark per backend
	// (0 = default 100).
	Faults int `json:"faults,omitempty"`
	// Window is the observation window in cycles (0 = default 250k).
	Window int64 `json:"window,omitempty"`
	// Backends is the comma-separated backend list (empty = all:
	// "itr,reptfd,dme").
	Backends string `json:"backends,omitempty"`
	// Scale scales the energy estimate to this many committed instructions
	// (0 = default 200M, the paper's window).
	Scale int64 `json:"scale,omitempty"`
	// NoVerify skips each campaign's full-protocol confirmation pass.
	NoVerify bool `json:"noVerify,omitempty"`
	// SnapshotInterval is the campaign fast-forward spacing (as in fault).
	SnapshotInterval int64 `json:"snapshotInterval,omitempty"`
	// SweepChunks additionally sweeps each backend's detection-granularity
	// knob (RepTFD chunk length, DME address offset) and prints a
	// per-configuration outcome table alongside the main shootout.
	SweepChunks bool `json:"sweepChunks,omitempty"`
}

// SimSpec parameterizes a single run on the ITR-protected cycle-level core.
type SimSpec struct {
	// Asm runs an assembly source file instead of a benchmark; Profile runs
	// a custom workload profile (JSON).
	Asm     string `json:"asm,omitempty"`
	Profile string `json:"profile,omitempty"`
	// Cycles is the cycle budget (0 = default 500k).
	Cycles int64 `json:"cycles,omitempty"`
	// PrintSignals prints the Table 2 decode-signal specification and exits.
	PrintSignals bool `json:"printSignals,omitempty"`
	// NoITR disables the ITR checker (baseline core).
	NoITR bool `json:"noITR,omitempty"`
	// Inject injects a fault at this decode event (0 = none), flipping Bit
	// (0 = default bit 36, the immediate field).
	Inject int64 `json:"inject,omitempty"`
	Bit    int   `json:"bit,omitempty"`
}

// Normalized resolves zero fields to the Kind's documented defaults and
// allocates the Kind's section, so engine code can read the spec without
// nil checks or default logic. Normalizing twice is a no-op.
func (s Spec) Normalized() Spec {
	switch s.Kind {
	case "char":
		if s.Char == nil {
			s.Char = &CharSpec{}
		}
		if s.Budget == 0 {
			s.Budget = workload.DefaultBudget
		}
	case "coverage":
		if s.Coverage == nil {
			s.Coverage = &CoverageSpec{}
		}
		if s.Coverage.Metric == "" {
			s.Coverage.Metric = "both"
		}
		if s.Budget == 0 {
			s.Budget = workload.DefaultBudget
		}
	case "dump":
		if s.Dump == nil {
			s.Dump = &DumpSpec{}
		}
		if s.Dump.N == 0 {
			s.Dump.N = 32
		}
		if s.Budget == 0 {
			s.Budget = 1_000_000
		}
		if s.Bench == "" {
			s.Bench = "bzip"
		}
	case "energy":
		if s.Energy == nil {
			s.Energy = &EnergySpec{}
		}
		if s.Energy.Scale == 0 {
			s.Energy.Scale = 200_000_000
		}
		if s.Energy.PerfCycles == 0 {
			s.Energy.PerfCycles = 300_000
		}
		if s.Budget == 0 {
			s.Budget = workload.DefaultBudget
		}
	case "fault":
		if s.Campaign == nil {
			s.Campaign = &CampaignSpec{}
		}
		if s.Campaign.Faults == 0 {
			s.Campaign.Faults = 100
		}
		if s.Campaign.Window == 0 {
			s.Campaign.Window = 250_000
		}
		if s.Seed == 0 {
			s.Seed = 0x17b
		}
	case "shootout":
		if s.Shootout == nil {
			s.Shootout = &ShootoutSpec{}
		}
		if s.Shootout.Faults == 0 {
			s.Shootout.Faults = 100
		}
		if s.Shootout.Window == 0 {
			s.Shootout.Window = 250_000
		}
		if s.Shootout.Backends == "" {
			s.Shootout.Backends = "itr,reptfd,dme"
		}
		if s.Shootout.Scale == 0 {
			s.Shootout.Scale = 200_000_000
		}
		if s.Budget == 0 {
			s.Budget = workload.DefaultBudget
		}
		if s.Seed == 0 {
			s.Seed = 0x17b
		}
	case "sim":
		if s.Sim == nil {
			s.Sim = &SimSpec{}
		}
		if s.Sim.Cycles == 0 {
			s.Sim.Cycles = 500_000
		}
		if s.Sim.Bit == 0 {
			s.Sim.Bit = 36
		}
		if s.Bench == "" {
			s.Bench = "bzip"
		}
	}
	return s
}

// DefaultSpec returns the normalized spec for a kind — the exact defaults
// the original paper commands used, which double as the subcommands' flag
// defaults.
func DefaultSpec(kind string) Spec {
	return Spec{Kind: kind}.Normalized()
}

// ParseSpec reads a JSON spec, rejecting unknown fields and anything after
// the spec object so typos in hand-written spec files fail loudly instead of
// silently running the default scenario.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("parse spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("parse spec: data after the spec object")
	}
	if s.Kind == "" {
		return Spec{}, fmt.Errorf("parse spec: missing \"kind\"")
	}
	if Lookup(s.Kind) == nil || s.Kind == "run" {
		return Spec{}, fmt.Errorf("parse spec: unknown kind %q", s.Kind)
	}
	return s, nil
}
