package isa

import (
	"math/rand"
	"sync"
	"testing"
)

// pageAddr returns an address inside page p at word offset w.
func pageAddr(p, w uint64) uint64 { return p<<pageShift | w<<3 }

func TestSnapshotImmutableUnderStores(t *testing.T) {
	m := NewMemory()
	m.Store(pageAddr(0, 0), 8, 0x1111)
	m.Store(pageAddr(5, 3), 8, 0x2222)

	snap := m.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not frozen")
	}

	// Overwrite a captured word, extend a captured page, and materialize a
	// brand-new page: none of it may show through the snapshot.
	m.Store(pageAddr(0, 0), 8, 0xdead)
	m.Store(pageAddr(5, 9), 8, 0xbeef)
	m.Store(pageAddr(7, 0), 8, 0xf00d)

	if got := snap.Load(pageAddr(0, 0), 8); got != 0x1111 {
		t.Errorf("snapshot saw overwrite: %#x", got)
	}
	if got := snap.Load(pageAddr(5, 9), 8); got != 0 {
		t.Errorf("snapshot saw page extension: %#x", got)
	}
	if got := snap.Load(pageAddr(7, 0), 8); got != 0 {
		t.Errorf("snapshot saw new page: %#x", got)
	}
	if got := m.Load(pageAddr(0, 0), 8); got != 0xdead {
		t.Errorf("live memory lost store: %#x", got)
	}
}

func TestSnapshotZeroCopyCapture(t *testing.T) {
	m := NewMemory()
	for p := uint64(0); p < 16; p++ {
		m.Store(pageAddr(p, 0), 8, p+1)
	}
	if m.CopiedPages() != 0 {
		t.Fatalf("fresh stores counted as COW copies: %d", m.CopiedPages())
	}
	m.Snapshot()
	if m.CopiedPages() != 0 {
		t.Fatalf("capture itself copied pages: %d", m.CopiedPages())
	}
	// Dirty 3 of the 16 pages; only those are copied.
	m.Store(pageAddr(1, 0), 8, 99)
	m.Store(pageAddr(1, 5), 8, 99) // same page: no second copy
	m.Store(pageAddr(4, 0), 8, 99)
	m.Store(pageAddr(9, 0), 8, 99)
	if got := m.CopiedPages(); got != 3 {
		t.Fatalf("CopiedPages = %d, want 3", got)
	}
}

func TestSnapshotRevertFastPath(t *testing.T) {
	m := NewMemory()
	m.Store(pageAddr(0, 0), 8, 1)
	m.Store(pageAddr(1, 0), 8, 2)
	snap := m.Snapshot()

	m.Store(pageAddr(0, 0), 8, 100) // COW-copy of an existing page
	m.Store(pageAddr(2, 0), 8, 300) // page absent from the snapshot

	m.CopyFrom(snap)
	if got := m.Load(pageAddr(0, 0), 8); got != 1 {
		t.Errorf("dirty page not reverted: %#x", got)
	}
	if got := m.Load(pageAddr(2, 0), 8); got != 0 {
		t.Errorf("post-snapshot page survived revert: %#x", got)
	}
	if got := m.NumPages(); got != snap.NumPages() {
		t.Errorf("NumPages = %d after revert, want %d", got, snap.NumPages())
	}

	// The memory is writable again and the snapshot still holds.
	m.Store(pageAddr(1, 0), 8, 200)
	if got := snap.Load(pageAddr(1, 0), 8); got != 2 {
		t.Errorf("snapshot disturbed by post-revert store: %#x", got)
	}
}

func TestCopyFromForeignSnapshot(t *testing.T) {
	src := NewMemory()
	src.Store(pageAddr(0, 0), 8, 42)
	src.Store(pageAddr(3, 1), 8, 43)
	snap := src.Snapshot()

	// A fresh memory with unrelated contents adopts the snapshot's pages by
	// reference (share-all path), then diverges without disturbing it.
	m := NewMemory()
	m.Store(pageAddr(9, 0), 8, 7)
	m.CopyFrom(snap)
	if got := m.Load(pageAddr(0, 0), 8); got != 42 {
		t.Errorf("restored word = %#x, want 42", got)
	}
	if got := m.Load(pageAddr(9, 0), 8); got != 0 {
		t.Errorf("pre-restore page survived: %#x", got)
	}
	m.Store(pageAddr(0, 0), 8, 0xbad)
	if got := snap.Load(pageAddr(0, 0), 8); got != 42 {
		t.Errorf("snapshot disturbed through foreign restore: %#x", got)
	}

	// Reverting to an older snapshot after syncing with a newer one of the
	// same lineage must take the rebuild path, not the dirty-log fast path.
	src.Store(pageAddr(0, 0), 8, 1000)
	snap2 := src.Snapshot()
	m.CopyFrom(snap2)
	m.CopyFrom(snap)
	if got := m.Load(pageAddr(0, 0), 8); got != 42 {
		t.Errorf("revert to older snapshot = %#x, want 42", got)
	}
}

func TestOwnedSharedAccounting(t *testing.T) {
	m := NewMemory()
	for p := uint64(0); p < 8; p++ {
		m.Store(pageAddr(p, 0), 8, p)
	}
	s1 := m.Snapshot()
	if s1.OwnedPages() != 8 || s1.SharedPages() != 0 {
		t.Fatalf("first snapshot owned/shared = %d/%d, want 8/0", s1.OwnedPages(), s1.SharedPages())
	}

	m.Store(pageAddr(2, 0), 8, 99)
	m.Store(pageAddr(8, 0), 8, 99)
	if m.DirtyPages() != 2 {
		t.Fatalf("DirtyPages = %d, want 2", m.DirtyPages())
	}
	s2 := m.Snapshot()
	if s2.NumPages() != 9 || s2.OwnedPages() != 2 || s2.SharedPages() != 7 {
		t.Fatalf("second snapshot pages/owned/shared = %d/%d/%d, want 9/2/7",
			s2.NumPages(), s2.OwnedPages(), s2.SharedPages())
	}
}

func TestFrozenMemoryPanics(t *testing.T) {
	m := NewMemory()
	m.Store(0, 8, 1)
	snap := m.Snapshot()

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on frozen snapshot did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Store", func() { snap.Store(0, 8, 2) })
	mustPanic("CopyFrom", func() { snap.CopyFrom(m) })

	if s2 := snap.Snapshot(); s2 != snap {
		t.Error("Snapshot of a snapshot should return itself")
	}
}

func TestCloneIsPrivate(t *testing.T) {
	m := NewMemory()
	m.Store(pageAddr(0, 0), 8, 5)
	snap := m.Snapshot()
	c := snap.Clone()
	if c.Frozen() {
		t.Fatal("clone of a snapshot must be writable")
	}
	c.Store(pageAddr(0, 0), 8, 6)
	if got := snap.Load(pageAddr(0, 0), 8); got != 5 {
		t.Errorf("clone store leaked into snapshot: %#x", got)
	}
}

// TestMemoryCowRandomized drives the COW memory and a set of retained
// snapshots against a plain word-map model through random stores, snapshots,
// and restores, checking full-contents agreement after every operation.
func TestMemoryCowRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0x17b))
	m := NewMemory()
	model := map[uint64]uint64{} // word-aligned addr -> value

	type capture struct {
		snap  *Memory
		model map[uint64]uint64
	}
	var caps []capture

	copyModel := func() map[uint64]uint64 {
		c := make(map[uint64]uint64, len(model))
		for k, v := range model {
			c[k] = v
		}
		return c
	}
	check := func(op string) {
		t.Helper()
		for addr, want := range model {
			if got := m.Load(addr, 8); got != want {
				t.Fatalf("after %s: mem[%#x] = %#x, want %#x", op, addr, got, want)
			}
		}
		for _, c := range caps {
			for addr, want := range c.model {
				if got := c.snap.Load(addr, 8); got != want {
					t.Fatalf("after %s: snapshot mem[%#x] = %#x, want %#x", op, addr, got, want)
				}
			}
		}
	}

	for i := 0; i < 3000; i++ {
		switch r := rng.Intn(100); {
		case r < 80: // store into a small page universe to force collisions
			addr := pageAddr(uint64(rng.Intn(6)), uint64(rng.Intn(pageWords)))
			v := rng.Uint64()
			m.Store(addr, 8, v)
			model[addr] = v
		case r < 90:
			caps = append(caps, capture{snap: m.Snapshot(), model: copyModel()})
		default:
			if len(caps) == 0 {
				continue
			}
			c := caps[rng.Intn(len(caps))]
			m.CopyFrom(c.snap)
			model = make(map[uint64]uint64, len(c.model))
			for k, v := range c.model {
				model[k] = v
			}
		}
		if i%50 == 0 || i == 2999 {
			check("op")
		}
	}
	check("final")
}

// TestConcurrentRestoreFromSnapshot has many goroutines restore from one
// snapshot and diverge while the capturing memory keeps storing into shared
// pages. Run under -race this proves snapshot reads, concurrent restores, and
// the producer's COW write path never touch the same memory unsynchronized.
func TestConcurrentRestoreFromSnapshot(t *testing.T) {
	m := NewMemory()
	for p := uint64(0); p < 32; p++ {
		m.Store(pageAddr(p, 0), 8, p+1)
	}
	snap := m.Snapshot()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := NewMemory()
			for iter := 0; iter < 50; iter++ {
				local.CopyFrom(snap)
				for p := uint64(0); p < 32; p++ {
					if got := local.Load(pageAddr(p, 0), 8); got != p+1 {
						t.Errorf("worker %d: mem[page %d] = %#x, want %#x", w, p, got, p+1)
						return
					}
				}
				// Diverge: COW-copy shared pages locally.
				local.Store(pageAddr(uint64(iter)%32, 8), 8, uint64(w))
			}
		}(w)
	}
	// The capturing memory keeps dirtying shared pages concurrently.
	for iter := 0; iter < 400; iter++ {
		m.Store(pageAddr(uint64(iter)%32, 16), 8, uint64(iter))
	}
	wg.Wait()

	for p := uint64(0); p < 32; p++ {
		if got := snap.Load(pageAddr(p, 0), 8); got != p+1 {
			t.Fatalf("snapshot disturbed: mem[page %d] = %#x", p, got)
		}
	}
}

// TestHotPageStoreAfterSnapshot: a store to the cached page after Snapshot
// copies the page like any other store to a captured page, so it never
// reaches the snapshot.
func TestHotPageStoreAfterSnapshot(t *testing.T) {
	m := NewMemory()
	m.Store(pageAddr(2, 0), 8, 0x1111)
	m.Load(pageAddr(2, 1), 8) // page 2 is the cached page
	snap := m.Snapshot()
	m.Store(pageAddr(2, 0), 8, 0x2222)
	if got := snap.Load(pageAddr(2, 0), 8); got != 0x1111 {
		t.Fatalf("snapshot saw a store through the cached page: %#x", got)
	}
	if got := m.Load(pageAddr(2, 0), 8); got != 0x2222 {
		t.Fatalf("live memory lost its store: %#x", got)
	}
	if m.CopiedPages() != 1 {
		t.Fatalf("copied %d pages, want 1", m.CopiedPages())
	}
}

// TestHotPageDroppedOnRestore: CopyFrom and Rollback replace pages, so the
// page cached before them must not serve a later access.
func TestHotPageDroppedOnRestore(t *testing.T) {
	restores := []struct {
		name    string
		restore func(m *Memory, snap *Memory)
	}{
		{"CopyFrom", func(m, snap *Memory) { m.CopyFrom(snap) }},
		{"CopyFrom-live", func(m, snap *Memory) { m.CopyFrom(snap.Clone()) }},
		{"Rollback", func(m, snap *Memory) {
			st := &ArchState{Mem: m}
			st.Rollback(m, &Checkpoint{Mem: snap})
		}},
	}
	for _, r := range restores {
		m := NewMemory()
		m.Store(pageAddr(1, 0), 8, 0xaaaa)
		snap := m.Snapshot()
		m.Store(pageAddr(1, 0), 8, 0xbbbb) // caches m's private copy
		r.restore(m, snap)
		if m.hot != nil {
			t.Errorf("%s: page %d still cached", r.name, m.hotID)
		}
		if got := m.Load(pageAddr(1, 0), 8); got != 0xaaaa {
			t.Errorf("%s: read %#x through a stale cached page, want 0xaaaa", r.name, got)
		}
		m.Store(pageAddr(1, 1), 8, 0xcccc)
		if got := snap.Load(pageAddr(1, 1), 8); got != 0 {
			t.Errorf("%s: store after restore reached the snapshot: %#x", r.name, got)
		}
	}
}

// TestFrozenMemoryNeverCaches: reads of a snapshot leave it untouched, so
// any number of goroutines may read it at once.
func TestFrozenMemoryNeverCaches(t *testing.T) {
	m := NewMemory()
	m.Store(pageAddr(3, 0), 8, 7)
	snap := m.Snapshot()
	for i := 0; i < 4; i++ {
		snap.Load(pageAddr(3, uint64(i)), 8)
	}
	if snap.hot != nil {
		t.Fatalf("snapshot cached page %d", snap.hotID)
	}
}

// TestConcurrentLoadsOnSnapshot has many goroutines load from one shared
// snapshot, across its pages. Run under -race it proves snapshot reads write
// nothing.
func TestConcurrentLoadsOnSnapshot(t *testing.T) {
	m := NewMemory()
	for p := uint64(0); p < 8; p++ {
		m.Store(pageAddr(p, p), 8, p+1)
	}
	snap := m.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				p := uint64(iter+w) % 8
				if got := snap.Load(pageAddr(p, p), 8); got != p+1 {
					t.Errorf("worker %d: mem[page %d] = %#x, want %#x", w, p, got, p+1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
