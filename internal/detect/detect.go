// Package detect hosts the pluggable fault-detection backends behind the
// core.Detector interface. The paper's ITR checker (internal/core) is the
// default and the bit-identity reference; this package adds the rival
// mechanisms the paper compares against only qualitatively:
//
//   - reptfd: RepTFD-style chunked replay detection. Committed traces are
//     folded into fixed-length chunk digests and compared against a
//     deterministic replay of the same chunk; a digest mismatch flags the
//     chunk. Detection is post-commit (latency = chunk length), so the full
//     protocol can only machine-check — or roll back to a coarse-grain
//     checkpoint — never flush-and-retry.
//
//   - dme: divergent dual-execution. Every dispatched trace is compared
//     against an independent second decode (pre-commit, ITR-like
//     flush-and-retry recovery), and a second golden-model execution runs
//     behind commit in an offset-decorrelated address space, catching
//     control-flow corruption that slips past the per-trace compare.
//
// Backends are selected by name through pipeline.Config.Detector. Each
// embeds a core.Frame, the in-flight protocol the ITR checker runs on
// (trace FIFO, flush-and-retry, machine check, pending post-commit verdict,
// counters, detection log and their capture), so fault campaigns, energy
// accounting and the experiment engine drive all of them identically.
package detect

import (
	"fmt"
	"strings"

	"itr/internal/core"
	"itr/internal/program"
)

// Backend names accepted by New (and the -detector CLI flag).
const (
	// NameITR is the default backend: the paper's ITR checker.
	NameITR = "itr"
	// NameRepTFD is the chunked-replay rival.
	NameRepTFD = "reptfd"
	// NameDME is the divergent dual-execution rival.
	NameDME = "dme"
)

// Names lists the known backends in help order.
func Names() []string { return []string{NameITR, NameRepTFD, NameDME} }

// Canonical maps a user-supplied backend name to its canonical form: the
// empty string means the default ITR backend.
func Canonical(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return NameITR
	}
	return name
}

// Known reports whether name resolves to a registered backend.
func Known(name string) bool {
	switch Canonical(name) {
	case NameITR, NameRepTFD, NameDME:
		return true
	}
	return false
}

// PreCommit reports whether the backend detects a faulty instance before it
// commits, so flush-and-retry can rescue it. RepTFD's chunked replay only
// notices after the chunk committed; its detections are detection-only.
func PreCommit(name string) bool { return Canonical(name) != NameRepTFD }

// Tuning defaults for the rival backends.
const (
	// DefaultChunkTraces is the RepTFD replay-chunk length in traces. Short
	// chunks shrink detection latency; long chunks amortize the compare.
	DefaultChunkTraces = 8
	// DefaultAddrOffset is the DME address-space decorrelation offset. The
	// shadow execution's memory traffic lands offset by this many bytes, so
	// an address-dependent fault cannot strike both executions identically.
	DefaultAddrOffset = 1 << 32
)

// Options tunes the non-ITR backends. The zero value means the documented
// defaults, so it can ride inside comparable configuration structs.
type Options struct {
	// ChunkTraces is the RepTFD replay-chunk length in traces
	// (0 = DefaultChunkTraces).
	ChunkTraces int
	// AddrOffset is the DME decorrelation offset in bytes
	// (0 = DefaultAddrOffset).
	AddrOffset uint64
}

func (o Options) normalize() Options {
	if o.ChunkTraces <= 0 {
		o.ChunkTraces = DefaultChunkTraces
	}
	if o.AddrOffset == 0 {
		o.AddrOffset = DefaultAddrOffset
	}
	return o
}

// New builds the named detector backend for prog. cfg parameterizes the ITR
// cache (ITR backend only); mode selects observe/full exactly as for the
// checker. The empty name means ITR.
func New(name string, prog *program.Program, cfg core.Config, mode core.Mode, opts Options) (core.Detector, error) {
	switch Canonical(name) {
	case NameITR:
		return core.NewChecker(cfg, mode)
	case NameRepTFD:
		return NewRepTFD(prog, mode, opts)
	case NameDME:
		return NewDME(prog, mode, opts)
	}
	return nil, fmt.Errorf("unknown detector backend %q (have %s)", name, strings.Join(Names(), ", "))
}
