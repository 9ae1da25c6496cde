// Package obs is the unified observability layer: lock-free counters,
// fixed-bucket log2 histograms, a bounded ring-buffer event tracer, a
// named-metric registry with Prometheus-text and expvar
// exposition, and a live telemetry HTTP endpoint.
//
// The probe structs threaded through pipeline, fault, and report
// (pipeline.Probe, fault.Progress, report.Probe) are built from these
// primitives; the experiment engine registers them under stable metric
// names and serves them live. Everything here is observability only:
// nothing in this package may influence simulation results.
package obs

import "sync/atomic"

// Counter is a monotonic (by convention) lock-free event counter. Its
// writers publish at run boundaries (the end of a pipeline run, a snapshot
// capture or restore, a finished injection), never per cycle, so one atomic
// word serves a whole worker pool without measurable contention; readers
// (progress ticks, manifest finalization, /metrics scrapes) load it live.
//
// The zero value is ready to use. Counters must not be copied after first
// use (hand around *Counter, as the probe structs do).
type Counter struct {
	n atomic.Int64
}

// Add adds d to the counter. It is safe for concurrent use.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Load returns the counter's value. The result is exact once writers have
// quiesced; while they are running it is a point-in-time read.
func (c *Counter) Load() int64 { return c.n.Load() }

// Store resets the counter to v. Only for tests and single-writer
// re-baselining; racing Store with Add loses updates by design.
func (c *Counter) Store(v int64) { c.n.Store(v) }
