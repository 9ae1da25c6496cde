package report

import (
	"time"

	"itr/internal/par"
	"itr/internal/trace"
)

// Engine runs report entry points on the shared worker pool (par.Each), one
// benchmark per job, at the engine's configured width; Figure8 alone runs
// at its campaign's width. The zero value is ready to use: a full-width
// pool (GOMAXPROCS) with no observer. Its only mutable state is the
// characterization memo, which is safe for concurrent use, so one engine
// may serve many concurrent callers; two engines never interfere — worker
// width is per-engine configuration, not process-global. An Engine must not
// be copied after first use.
type Engine struct {
	// Workers bounds the pool width; <= 0 means GOMAXPROCS. Output is
	// deterministic regardless of the width: results are written into
	// index-addressed slots, so parallel runs are bit-identical to
	// Workers: 1.
	Workers int
	// OnItem, when non-nil, is invoked after each completed unit of work
	// (one benchmark characterization, one sweep cell replay, one fault
	// campaign) with a label — the benchmark name — and its wall-clock
	// duration. It is called from pool goroutines concurrently, so it must
	// be safe for concurrent use.
	OnItem func(label string, elapsed time.Duration)
	// Probe, when non-nil, accumulates sweep telemetry (streams generated,
	// events replayed, cells completed) across every entry point run on this
	// engine. Updated concurrently from pool goroutines.
	Probe *Probe

	chars par.Memo[charKey, *trace.Characterizer] // see Characterization
}

// charKey identifies one memoized characterization: a benchmark at a scaled
// instruction budget.
type charKey struct {
	name   string
	budget int64
}

// item runs fn, reporting its duration to OnItem under the given label.
func (e *Engine) item(label string, fn func() error) error {
	if e.OnItem == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	e.OnItem(label, time.Since(start))
	return err
}
