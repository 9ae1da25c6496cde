package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCaptureChunksSharing: a capture takes every chunk whose content equals
// its base's by reference and copies the rest; the copy is exact whatever
// the base is (none, the previous capture, or a capture of another table).
func TestCaptureChunksSharing(t *testing.T) {
	const n = 5*ChunkLen + 3 // a short tail chunk too
	table := make([]uint64, n)
	for i := range table {
		table[i] = uint64(i)
	}
	first := CaptureChunks(table, nil)
	if sh, cp := first.Sharing(); sh != 0 || cp != 6 {
		t.Fatalf("capture without a base: shared %d, copied %d; want 0, 6", sh, cp)
	}

	table[ChunkLen+2]++ // chunk 1
	table[n-1]++        // the tail chunk
	second := CaptureChunks(table, first)
	if sh, cp := second.Sharing(); sh != 4 || cp != 2 {
		t.Fatalf("shared %d, copied %d; want 4, 2", sh, cp)
	}
	for i := range second.chunks {
		same := &second.chunks[i][0] == &first.chunks[i][0]
		if changed := i == 1 || i == 5; same == changed {
			t.Errorf("chunk %d: shared with base = %v, want %v", i, same, !changed)
		}
	}

	// A base of another table still yields an exact copy.
	other := CaptureChunks(make([]uint64, 2*ChunkLen), nil)
	for _, base := range []*Chunks[uint64]{nil, first, second, other} {
		c := CaptureChunks(table, base)
		got := make([]uint64, n)
		c.CopyTo(got)
		if !slices.Equal(got, table) {
			t.Fatalf("capture against base %p does not copy back exactly", base)
		}
	}
}

// TestStateSeriesRestoresLikeFlatCopy models a pilot snapshot series: a
// cache keeps running and writing between captures, each capture shares the
// unchanged chunks of the one before, and afterwards every state — restored
// in shuffled order, so each restore also resets the sync point the next
// capture shares against — must put back exactly the lines, recency stamps
// and counters a flat copy took at the same moment.
func TestStateSeriesRestoresLikeFlatCopy(t *testing.T) {
	type oracle struct {
		lines []Line
		lru   []uint64
		clock uint64
		stats Stats
	}
	flat := func(c *Cache) oracle {
		return oracle{slices.Clone(c.lines), slices.Clone(c.lru), c.clock, c.stats}
	}
	for _, repl := range []Replacement{ReplLRU, ReplCheckedLRU} {
		rng := rand.New(rand.NewSource(int64(repl)))
		c := MustNew(1024, 2, repl)
		var states []*State
		var want []oracle
		shared := 0
		for k := 0; k < 12; k++ {
			// Mostly hits on a hot key range, some fresh installs.
			applyOps(c, randomOps(rng, 300, 1200))
			st := c.CaptureState()
			sh, _ := st.Sharing()
			shared += sh
			states = append(states, st)
			want = append(want, flat(c))
		}
		if shared == 0 {
			t.Fatalf("repl-%d: no capture shared a chunk; the series would not exercise sharing", repl)
		}
		applyOps(c, randomOps(rng, 3000, 4096))

		for _, i := range rng.Perm(len(states)) {
			if err := c.RestoreState(states[i]); err != nil {
				t.Fatal(err)
			}
			got := flat(c)
			w := want[i]
			if !slices.Equal(got.lines, w.lines) || !slices.Equal(got.lru, w.lru) ||
				got.clock != w.clock || got.stats != w.stats {
				t.Fatalf("repl-%d: state %d does not restore to its flat copy", repl, i)
			}
			// Run on and capture against the restored state as base.
			applyOps(c, randomOps(rng, 200, 1200))
			st := c.CaptureState()
			fresh := MustNew(1024, 2, repl)
			if err := fresh.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fresh.lines, c.lines) || !slices.Equal(fresh.lru, c.lru) {
				t.Fatalf("repl-%d: capture after restoring state %d is not exact", repl, i)
			}
		}
	}
}
