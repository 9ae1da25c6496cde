// Package par is the one worker pool behind every parallel loop in the
// simulator: index-parallel jobs whose results land by index, so output is
// identical at any width.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(w, i) for every i in [0, n) on min(workers, n) goroutines
// (GOMAXPROCS when workers <= 0) and returns once every call has returned.
// Jobs are claimed from a shared counter in index order, so job 0 starts
// first; execution order is otherwise nondeterministic, and callers write
// results into slot i of a pre-sized slice. w in [0, width) names the
// goroutine running the job: jobs sharing a w run one at a time, so fn may
// keep per-worker state in slot w. The returned error is the lowest-index
// one.
func Each(workers, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(w, i)
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

// Memo computes one value per key, once, and shares it with every caller.
// The map lock covers only the entry lookup; the computation runs under the
// entry's own once, so different keys compute in parallel while callers of
// the same key wait for the first and share its result. The zero value is
// ready to use; a Memo must not be copied after first use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Do returns k's value, computing it with f on the first request.
func (m *Memo[K, V]) Do(k K, f func() (V, error)) (V, error) {
	m.mu.Lock()
	e := m.m[k]
	if e == nil {
		if m.m == nil {
			m.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		m.m[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = f() })
	return e.v, e.err
}
