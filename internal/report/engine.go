package report

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"itr/internal/trace"
)

// Engine runs report entry points on an explicitly configured worker pool.
// The zero value is ready to use: a full-width pool (GOMAXPROCS) with no
// observer. Its only mutable state is the characterization memo, which is
// safe for concurrent use, so one engine may serve many concurrent callers;
// two engines never interfere — worker width is per-engine configuration,
// not process-global. An Engine must not be copied after first use.
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

	charMu sync.Mutex
	chars  map[charKey]*charEntry // see Characterization
}

// charKey identifies one memoized characterization: a benchmark at a scaled
// instruction budget.
type charKey struct {
	name   string
	budget int64
}

// charEntry is one memoized characterization, computed once.
type charEntry struct {
	once sync.Once
	c    *trace.Characterizer
	err  error
}

// charMemo returns (creating if needed) the memo entry for k. The engine
// lock covers only the lookup; the characterization itself runs under the
// entry's once, so different benchmarks characterize in parallel.
func (e *Engine) charMemo(k charKey) *charEntry {
	e.charMu.Lock()
	defer e.charMu.Unlock()
	if e.chars == nil {
		e.chars = make(map[charKey]*charEntry)
	}
	m := e.chars[k]
	if m == nil {
		m = &charEntry{}
		e.chars[k] = m
	}
	return m
}

// workers resolves the effective pool width.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
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

// forEach runs fn(i) for every i in [0, n) on a pool of workers()
// goroutines. Work items are claimed from a shared atomic counter, so
// ordering of *execution* is nondeterministic — callers must write results
// into slot i of a pre-sized slice, never append. The returned error is the
// lowest-index failure, making error selection deterministic too. With an
// effective width of one the loop runs inline (no goroutines), which is
// also the fast path for tiny n.
func (e *Engine) forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := e.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// defaultEngine backs the package-level convenience wrappers: full-width
// pool, no observer. Its characterization memo lives for the process.
var defaultEngine = &Engine{}
