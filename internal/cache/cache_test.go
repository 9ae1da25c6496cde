package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		entries, assoc int
		ok             bool
	}{
		{256, 1, true},
		{256, 2, true},
		{1024, 16, true},
		{512, FullyAssociative, true},
		{0, 1, false},
		{-4, 1, false},
		{100, 1, false},  // not a power of two
		{256, 3, false},  // not divisible
		{256, -2, false}, // negative
		{8, 16, false},   // assoc > entries
	}
	for _, c := range cases {
		_, err := New(c.entries, c.assoc, ReplLRU)
		if (err == nil) != c.ok {
			t.Errorf("New(%d, %d): err=%v, want ok=%v", c.entries, c.assoc, err, c.ok)
		}
	}
	if _, err := New(256, 2, Replacement(99)); err == nil {
		t.Error("unknown replacement policy accepted")
	}
}

func TestGeometry(t *testing.T) {
	c := MustNew(1024, 2, ReplLRU)
	if c.Entries() != 1024 || c.Assoc() != 2 || c.NumSets() != 512 {
		t.Fatalf("geometry: %d entries, %d ways, %d sets", c.Entries(), c.Assoc(), c.NumSets())
	}
	fa := MustNew(256, FullyAssociative, ReplLRU)
	if fa.NumSets() != 1 || fa.Assoc() != 256 {
		t.Fatalf("fa geometry: %d sets, %d ways", fa.NumSets(), fa.Assoc())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	if _, hit := c.Lookup(5); hit {
		t.Fatal("empty cache hit")
	}
	c.Insert(5, 500)
	ln, hit := c.Lookup(5)
	if !hit || ln.Value != 500 {
		t.Fatalf("hit=%v val=%+v", hit, ln)
	}
	if !ln.Referenced {
		t.Fatal("hit must set Referenced")
	}
	if _, hit := c.Lookup(6); hit {
		t.Fatal("absent key hit")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	c.Insert(5, 500)
	c.Insert(5+8, 1300) // same set; 5 is now least recently used
	ln, ok := c.Probe(5)
	if !ok || ln.Referenced {
		t.Fatalf("probe: ok=%v ref=%v", ok, ln.Referenced)
	}
	if _, ok := c.Probe(6); ok {
		t.Fatal("probe hit missing key")
	}
	// The probe did not refresh 5's recency, so it is still the victim.
	if ev, was := c.Insert(5+16, 2100); !was || ev.Key != 5 || ev.Referenced {
		t.Fatalf("evicted %+v (was=%v), want unreferenced key 5", ev, was)
	}
}

func TestInsertOverwritesInPlace(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	c.Insert(5, 500)
	ev, was := c.Insert(5, 501)
	if was {
		t.Fatalf("in-place overwrite evicted %+v", ev)
	}
	ln, _ := c.Probe(5)
	if ln.Value != 501 {
		t.Fatalf("overwrite lost: %d", ln.Value)
	}
	// The overwrite took no way: a second key fits in the set's free way.
	if ev, was := c.Insert(5+8, 0); was {
		t.Fatalf("insert into free way evicted %+v", ev)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction of an LRU scenario in one 4-way set of a
	// fully-associative cache.
	c := MustNew(4, FullyAssociative, ReplLRU)
	for k := uint64(1); k <= 4; k++ {
		c.Insert(k, k*10)
	}
	c.Lookup(1) // make key 1 most recently used; LRU is now 2
	ev, was := c.Insert(5, 50)
	if !was || ev.Key != 2 {
		t.Fatalf("evicted %+v, want key 2", ev)
	}
	if _, hit := c.Lookup(1); !hit {
		t.Fatal("key 1 should survive")
	}
}

func TestEvictionUnreferencedAccounting(t *testing.T) {
	c := MustNew(2, FullyAssociative, ReplLRU)
	c.Insert(1, 0)
	c.Insert(2, 0)
	c.Lookup(1) // reference line 1
	// 2 is LRU and never referenced.
	if ev, was := c.Insert(3, 0); !was || ev.Key != 2 || ev.Referenced {
		t.Fatalf("first eviction %+v (was=%v), want unreferenced key 2", ev, was)
	}
	// 1 is LRU after 3's insert and was referenced.
	if ev, was := c.Insert(4, 0); !was || ev.Key != 1 || !ev.Referenced {
		t.Fatalf("second eviction %+v (was=%v), want referenced key 1", ev, was)
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	c := MustNew(16, 1, ReplLRU)
	c.Insert(3, 30)
	// Key 3+16 maps to the same set in a 16-set direct-mapped cache.
	ev, was := c.Insert(19, 190)
	if !was || ev.Key != 3 {
		t.Fatalf("dm conflict eviction: %+v was=%v", ev, was)
	}
	if _, hit := c.Lookup(3); hit {
		t.Fatal("evicted key still resident")
	}
}

func TestSetIsolation(t *testing.T) {
	c := MustNew(16, 1, ReplLRU)
	for k := uint64(0); k < 16; k++ {
		// All 16 distinct sets: no evictions.
		if ev, was := c.Insert(k, k); was {
			t.Fatalf("isolated sets evicted %+v", ev)
		}
	}
	for k := uint64(0); k < 16; k++ {
		if _, hit := c.Lookup(k); !hit {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestCheckedLRUPrefersCheckedVictims(t *testing.T) {
	c := MustNew(4, FullyAssociative, ReplCheckedLRU)
	for k := uint64(1); k <= 4; k++ {
		c.Insert(k, 0)
	}
	// Mark key 3 checked; it should be evicted even though 1 is LRU.
	ln, _ := c.Probe(3)
	ln.Checked = true
	ev, was := c.Insert(5, 0)
	if !was || ev.Key != 3 {
		t.Fatalf("checked-LRU evicted %+v, want key 3", ev)
	}
}

func TestCheckedLRUFallsBackToLRU(t *testing.T) {
	c := MustNew(4, FullyAssociative, ReplCheckedLRU)
	for k := uint64(1); k <= 4; k++ {
		c.Insert(k, 0)
	}
	// No line checked: plain LRU applies (key 1).
	ev, was := c.Insert(5, 0)
	if !was || ev.Key != 1 {
		t.Fatalf("fallback evicted %+v, want key 1", ev)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	c.Insert(7, 70)
	c.Insert(7+8, 150)
	if !c.Invalidate(7) {
		t.Fatal("invalidate missed resident key")
	}
	if _, hit := c.Lookup(7); hit {
		t.Fatal("invalidated key still hits")
	}
	if c.Invalidate(7) {
		t.Fatal("double invalidate succeeded")
	}
	// Invalidations free their way: the set takes a new key without
	// evicting 7+8.
	if ev, was := c.Insert(7+16, 230); was {
		t.Fatalf("insert after invalidate evicted %+v", ev)
	}
}

func TestVisitAndCounts(t *testing.T) {
	c := MustNew(16, 2, ReplLRU)
	for k := uint64(0); k < 6; k++ {
		c.Insert(k, 0)
	}
	c.Lookup(0)
	ln, _ := c.Probe(1)
	ln.Checked = true
	n := 0
	c.Visit(func(*Line) { n++ })
	if n != 6 {
		t.Fatalf("visited %d lines", n)
	}
	unchecked := 0
	c.Visit(func(ln *Line) {
		if !ln.Checked {
			unchecked++
		}
	})
	if unchecked != 5 {
		t.Fatalf("unchecked = %d", unchecked)
	}
}

func TestParity64(t *testing.T) {
	if Parity64(0) {
		t.Error("parity of 0")
	}
	if !Parity64(1) {
		t.Error("parity of 1")
	}
	if Parity64(3) {
		t.Error("parity of 0b11")
	}
	if err := quick.Check(func(v uint64, bit uint8) bool {
		// Flipping any single bit flips parity.
		return Parity64(v) != Parity64(v^(1<<uint(bit%64)))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: contents behave like a bounded map — a key inserted and never
// evicted must hit with its latest value.
func TestPropertyInsertedKeysHitUntilEvicted(t *testing.T) {
	if err := quick.Check(func(keys []uint16) bool {
		c := MustNew(64, 4, ReplLRU)
		evicted := make(map[uint64]bool)
		latest := make(map[uint64]uint64)
		for i, k16 := range keys {
			k := uint64(k16)
			ev, was := c.Insert(k, uint64(i))
			latest[k] = uint64(i)
			delete(evicted, k)
			if was {
				evicted[ev.Key] = true
			}
		}
		for k, v := range latest {
			ln, hit := c.Probe(k)
			if evicted[k] {
				if hit {
					// Key may have been reinserted after eviction; only
					// fail if values disagree.
					if ln.Value != v {
						return false
					}
				}
				continue
			}
			if !hit || ln.Value != v {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity and only grows via inserts.
func TestPropertyOccupancyBounded(t *testing.T) {
	if err := quick.Check(func(keys []uint16, assocSel uint8) bool {
		assoc := []int{1, 2, 4, FullyAssociative}[assocSel%4]
		c := MustNew(16, assoc, ReplLRU)
		for _, k := range keys {
			c.Insert(uint64(k), 0)
			n := 0
			c.Visit(func(*Line) { n++ })
			if n > 16 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// cacheOp is one step of a replayed access sequence: a lookup that may mark
// its hit line checked, an insert, or an invalidation.
type cacheOp struct {
	kind  uint8 // 0 lookup, 1 insert, 2 invalidate
	key   uint64
	check bool
}

// randomOps draws n operations over keys in [0, keySpace), weighted toward
// lookups and inserts as in the ITR cache's dispatch/commit traffic.
func randomOps(rng *rand.Rand, n int, keySpace uint64) []cacheOp {
	ops := make([]cacheOp, n)
	for i := range ops {
		op := cacheOp{key: rng.Uint64() % keySpace, check: rng.Intn(3) == 0}
		switch r := rng.Intn(20); {
		case r < 10:
			op.kind = 0
		case r < 19:
			op.kind = 1
		default:
			op.kind = 2
		}
		ops[i] = op
	}
	return ops
}

// applyOps runs ops on c and returns the lines it evicted and every
// lookup's hit bit, in order.
func applyOps(c *Cache, ops []cacheOp) (evicted []Line, hits []bool) {
	for i, op := range ops {
		switch op.kind {
		case 0:
			ln, hit := c.Lookup(op.key)
			hits = append(hits, hit)
			if hit && op.check {
				ln.Checked = true
			}
		case 1:
			ln, ev, was := c.InsertGet(op.key, uint64(i))
			ln.Aux = uint64(i) * 3
			ln.Checked = op.check
			if was {
				evicted = append(evicted, ev)
			}
		case 2:
			c.Invalidate(op.key)
		}
	}
	return evicted, hits
}

func visitLines(c *Cache) []Line {
	var out []Line
	c.Visit(func(ln *Line) { out = append(out, *ln) })
	return out
}

// TestRestoreStateReplaysLikeUncapturedTwin captures a cache mid-run,
// mutates it, restores the capture, and then replays one operation sequence
// on the restored cache and on a twin that never left the captured point:
// both must agree on every lookup's hit or miss, on every evicted line in
// order, and on their resident contents — for a fully associative and for
// the paper's 2-way geometry, under both replacement policies.
func TestRestoreStateReplaysLikeUncapturedTwin(t *testing.T) {
	geoms := []struct {
		name           string
		entries, assoc int
		keySpace       uint64
	}{
		{"fa/256", 256, FullyAssociative, 400},
		{"2-way/1024", 1024, 2, 2048},
	}
	for _, g := range geoms {
		for _, repl := range []Replacement{ReplLRU, ReplCheckedLRU} {
			t.Run(fmt.Sprintf("%s/repl-%d", g.name, repl), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(g.entries) + int64(repl)))
				prefix := randomOps(rng, 4000, g.keySpace)
				mutate := randomOps(rng, 3000, g.keySpace)
				replay := randomOps(rng, 6000, g.keySpace)

				c := MustNew(g.entries, g.assoc, repl)
				twin := MustNew(g.entries, g.assoc, repl)
				applyOps(c, prefix)
				applyOps(twin, prefix)
				st := c.CaptureState()
				if ev, _ := applyOps(c, mutate); len(ev) == 0 {
					t.Fatal("mutation phase evicted nothing; the test would not exercise victim order")
				}
				if err := c.RestoreState(st); err != nil {
					t.Fatal(err)
				}

				gotEv, gotHits := applyOps(c, replay)
				wantEv, wantHits := applyOps(twin, replay)
				if len(wantEv) == 0 {
					t.Fatal("replay evicted nothing")
				}
				if !slices.Equal(gotHits, wantHits) {
					t.Fatal("lookup hits and misses diverge after replay")
				}
				if !reflect.DeepEqual(gotEv, wantEv) {
					t.Fatalf("evictions diverge: restored %d lines, twin %d", len(gotEv), len(wantEv))
				}
				if !reflect.DeepEqual(visitLines(c), visitLines(twin)) {
					t.Fatal("resident lines diverge after replay")
				}
			})
		}
	}
}
