package par

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEach covers the pool: every index visited once at serial, parallel
// and over-wide widths and at n == 0; worker indices in [0, width); peak
// concurrency bounded by the width; job 0 claimed first; and lowest-index
// error selection.
func TestEach(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 8, n + 5} {
		width := workers
		if width <= 0 {
			width = runtime.GOMAXPROCS(0)
		}
		width = min(width, n)
		visits := make([]atomic.Int32, n)
		var running, peak atomic.Int32
		// Every other job waits for job 0 to start, which at width 1, and
		// with each worker blocked, happens only if job 0 is claimed first.
		started, giveUp := make(chan struct{}), make(chan struct{})
		timer := time.AfterFunc(5*time.Second, func() { close(giveUp) })
		var early atomic.Int32
		err := Each(workers, n, func(w, i int) error {
			if i == 0 {
				close(started)
			} else {
				select {
				case <-started:
				case <-giveUp:
					early.Add(1)
				}
			}
			if w < 0 || w >= width {
				t.Errorf("workers=%d: job %d ran on worker %d, want [0, %d)", workers, i, w, width)
			}
			cur := running.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
			visits[i].Add(1)
			return nil
		})
		timer.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if e := early.Load(); e > 0 {
			t.Errorf("workers=%d: %d jobs started long before job 0", workers, e)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, v)
			}
		}
		if p := peak.Load(); p > int32(width) {
			t.Errorf("workers=%d: %d jobs ran at once, width is %d", workers, p, width)
		}
	}

	if err := Each(4, 0, func(w, i int) error {
		t.Errorf("n=0 ran job %d", i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		err := Each(workers, 10, func(_, i int) error {
			switch i {
			case 3:
				return errB
			case 7:
				return errA
			}
			return nil
		})
		if err != errB {
			t.Errorf("workers=%d: got error %v, want lowest-index error %v", workers, err, errB)
		}
	}
}

// TestMemo: concurrent requests for one key share a single computation,
// different keys compute separately, and an error is memoized like a value.
func TestMemo(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	got := make([]int, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = m.Do("a", func() (int, error) { calls.Add(1); return 42, nil })
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if c := calls.Load(); c != 1 {
		t.Errorf("%d computations for one key, want 1", c)
	}

	errX := errors.New("x")
	for range 2 {
		if _, err := m.Do("b", func() (int, error) { calls.Add(1); return 0, errX }); err != errX {
			t.Errorf("got error %v, want %v", err, errX)
		}
	}
	if c := calls.Load(); c != 2 {
		t.Errorf("%d computations for two keys, want 2", c)
	}
}
