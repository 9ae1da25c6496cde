package report

import (
	"itr/internal/obs"
	"itr/internal/workload"
)

// Probe collects sweep telemetry: how much event-stream work the report
// entry points actually performed. Attach one to an Engine to have every
// sweep, characterization and energy run account its traversals; the
// experiment manifest, the -progress ticker and the /metrics endpoint
// surface the counters. Fields are lock-free obs counters — probes are
// updated concurrently from pool goroutines and may be read while a run is
// in flight.
type Probe struct {
	// StreamsGenerated counts functional event-stream generations: one per
	// benchmark per sweep or energy run, and one per benchmark and budget
	// for all of an engine's characterization figures together.
	StreamsGenerated obs.Counter
	// EventsReplayed counts trace events traversed (each event is counted
	// once per stream pass, regardless of how many cache configurations the
	// bank fans it out to).
	EventsReplayed obs.Counter
	// CellsCompleted counts finished (benchmark, configuration) sweep cells.
	CellsCompleted obs.Counter
}

// observe folds one stream traversal's accounting into the engine's probe,
// if it has one. Stream traversals are orders of magnitude rarer than the
// events inside them, so these use the unsharded add.
func (e *Engine) observe(info workload.StreamInfo) {
	if e.Probe == nil {
		return
	}
	e.Probe.StreamsGenerated.Add(1)
	e.Probe.EventsReplayed.Add(info.Events)
}

// cells records n completed sweep cells on the engine's probe, if it has one.
func (e *Engine) cells(n int) {
	if e.Probe != nil {
		e.Probe.CellsCompleted.Add(int64(n))
	}
}
