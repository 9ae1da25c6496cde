package isa

// Sparse data memory with generation-tagged copy-on-write pages.
//
// The fault campaign re-runs each benchmark from fault-free state on the
// order of a thousand times; both the pilot's snapshot series and every
// per-injection restore used to deep-copy the entire page set, making their
// cost scale with the total touched footprint. The COW scheme below makes
// capture O(page-table) with zero page copies and makes the write path pay
// only for pages actually dirtied since the last snapshot boundary:
//
//   - every page carries the generation it was materialized in;
//   - Snapshot freezes the current page table by reference and bumps the
//     live memory's generation, so the first store to any captured page
//     copies it (pages the run never touches again are never copied);
//   - CopyFrom from a snapshot shares pages by reference, and when the
//     memory is already synchronized with that snapshot's lineage it only
//     reverts the pages dirtied since (the dirty log names them).
//
// A live memory also caches its most recently accessed page, so runs of
// accesses to one page skip the page-table map. Reads may use the cached page
// whatever its generation; a store writes it in place only while its stamp is
// current, exactly as the map path would.

const (
	pageWords = 512 // 4 KiB pages of 8-byte words
	pageShift = 12
	pageMask  = (1 << pageShift) - 1

	// PageBytes is the size of one memory page (snapshot telemetry reports
	// copied pages in bytes with it).
	PageBytes = 1 << pageShift
)

// memPage is one 4 KiB page plus the generation it was materialized in. A
// memory may write a page in place only while its own generation matches the
// stamp; pages inherited from a snapshot always carry an older stamp and are
// copied on first store.
type memPage struct {
	gen  uint64
	data [pageWords]uint64
}

// Memory is a sparse, byte-addressable data memory backed by 4 KiB pages of
// 64-bit words, with copy-on-write snapshots. The zero value is not usable;
// call NewMemory.
type Memory struct {
	pages map[uint64]*memPage

	// hot is pages[hotID], cached; nil when nothing is cached. Snapshots
	// never cache: many goroutines read them at once. CopyFrom, the only
	// call that replaces pages the cache may hold, clears it.
	hot   *memPage
	hotID uint64

	gen    uint64 // current write generation; pages stamped older are shared
	frozen bool   // snapshots are immutable: Store and CopyFrom panic

	// base is the snapshot this memory last synchronized with (captured or
	// restored); dirty lists the page IDs materialized since, enabling
	// O(dirty) revert back to base. nil/empty outside snapshot lineages.
	base  *Memory
	dirty []uint64

	copied int64 // lifetime count of copy-on-write page copies
	owned  int   // frozen only: pages first materialized by this snapshot
}

var _ MemBus = (*Memory)(nil)

// NewMemory returns an empty memory. All bytes read as zero until written.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*memPage)}
}

// word returns the word holding addr for reading, or nil when the page was
// never materialized. Shared (snapshot-visible) pages are read in place.
func (m *Memory) word(addr uint64) *uint64 {
	id := addr >> pageShift
	page := m.hot
	if page == nil || id != m.hotID {
		var ok bool
		if page, ok = m.pages[id]; !ok {
			return nil
		}
		if !m.frozen {
			m.hot, m.hotID = page, id
		}
	}
	return &page.data[(addr&pageMask)>>3]
}

// wordForWrite returns the word holding addr for writing, materializing a
// private copy of the page when it is shared with a snapshot (stamped with an
// older generation) and allocating it when it does not exist yet.
func (m *Memory) wordForWrite(addr uint64) *uint64 {
	pageID := addr >> pageShift
	if page := m.hot; page != nil && pageID == m.hotID && page.gen == m.gen {
		return &page.data[(addr&pageMask)>>3]
	}
	if m.frozen {
		panic("isa: store to frozen snapshot memory")
	}
	page, ok := m.pages[pageID]
	switch {
	case !ok:
		page = &memPage{gen: m.gen}
		m.pages[pageID] = page
		m.dirty = append(m.dirty, pageID)
	case page.gen != m.gen:
		cp := &memPage{gen: m.gen, data: page.data}
		m.pages[pageID] = cp
		m.dirty = append(m.dirty, pageID)
		m.copied++
		page = cp
	}
	m.hot, m.hotID = page, pageID
	return &page.data[(addr&pageMask)>>3]
}

// Load reads size bytes (1, 2, 4 or 8) at addr, little-endian, zero-extended.
// Accesses are aligned down to the access size.
func (m *Memory) Load(addr uint64, size uint8) uint64 {
	if size == 0 {
		return 0
	}
	addr &^= uint64(size) - 1
	w := m.word(addr)
	if w == nil {
		return 0
	}
	shift := (addr & 7) * 8
	switch size {
	case 1:
		return (*w >> shift) & 0xff
	case 2:
		return (*w >> shift) & 0xffff
	case 4:
		return (*w >> shift) & 0xffffffff
	default:
		return *w
	}
}

// Store writes size bytes (1, 2, 4 or 8) of v at addr, little-endian.
// Accesses are aligned down to the access size.
func (m *Memory) Store(addr uint64, size uint8, v uint64) {
	if size == 0 {
		return
	}
	addr &^= uint64(size) - 1
	w := m.wordForWrite(addr)
	shift := (addr & 7) * 8
	switch size {
	case 1:
		*w = *w&^(uint64(0xff)<<shift) | (v&0xff)<<shift
	case 2:
		*w = *w&^(uint64(0xffff)<<shift) | (v&0xffff)<<shift
	case 4:
		*w = *w&^(uint64(0xffffffff)<<shift) | (v&0xffffffff)<<shift
	default:
		*w = v
	}
}

// NumPages returns how many distinct pages the memory references — pages
// materialized by stores through this memory plus pages inherited by
// reference from a snapshot it was captured into or restored from.
func (m *Memory) NumPages() int { return len(m.pages) }

// DirtyPages returns how many pages have been materialized (allocated or
// copied) since this memory's last Snapshot or snapshot restore, whoever took
// it — the exact page count the next Snapshot will own.
func (m *Memory) DirtyPages() int {
	if m.base == nil {
		return len(m.pages)
	}
	return len(m.dirty)
}

// CopiedPages returns the lifetime count of copy-on-write page copies — the
// physical copying the write path performed to preserve snapshot views. It
// is monotonic across snapshots and restores.
func (m *Memory) CopiedPages() int64 { return m.copied }

// OwnedPages returns, for a snapshot, the number of pages it materialized
// first: pages the capturing memory dirtied since its last Snapshot, whoever
// took it (everything else is shared by reference with older captures). For a
// live memory it reports the current dirty-page count.
func (m *Memory) OwnedPages() int {
	if m.frozen {
		return m.owned
	}
	return m.DirtyPages()
}

// SharedPages returns NumPages minus OwnedPages: pages held by reference
// only.
func (m *Memory) SharedPages() int { return len(m.pages) - m.OwnedPages() }

// Frozen reports whether the memory is an immutable snapshot.
func (m *Memory) Frozen() bool { return m.frozen }

// Snapshot returns an immutable copy-on-write capture of the memory:
// O(page-table) work, zero page copies. The snapshot shares page storage
// with the live memory, which copies any shared page on its next store to
// it, so the snapshot's view never changes; it may be read — and restored
// from via CopyFrom — by any number of goroutines concurrently.
func (m *Memory) Snapshot() *Memory {
	if m.frozen {
		return m
	}
	snap := &Memory{
		pages:  make(map[uint64]*memPage, len(m.pages)),
		gen:    m.gen,
		frozen: true,
		owned:  m.DirtyPages(),
	}
	for id, page := range m.pages {
		snap.pages[id] = page
	}
	m.gen++
	m.base = snap
	m.dirty = m.dirty[:0]
	return snap
}

// Clone returns a deep copy of the memory. The clone is private: it shares
// no pages and no snapshot lineage with the original.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for id, page := range m.pages {
		c.pages[id] = &memPage{data: page.data}
	}
	return c
}

// CopyFrom overwrites the memory's entire contents with the contents of src,
// preserving m's identity so aliases (ArchState.Mem, store overlays) stay
// valid. src is only read; one snapshot memory may be restored into any
// number of memories concurrently.
//
// When src is a snapshot the copy is O(pages dirtied since the snapshot):
// pages are adopted by reference and only divergent pages are touched —
// those the memory dirtied since last synchronizing with src when it is
// src's direct descendant (the dirty log names them), or the whole page
// table (still by reference, no page copies) when the lineages differ.
// Subsequent stores copy-on-write, so src's view is never disturbed. A
// non-snapshot src is deep-copied.
func (m *Memory) CopyFrom(src *Memory) {
	if m.frozen {
		panic("isa: CopyFrom into frozen snapshot memory")
	}
	if m == src {
		return
	}
	m.hot = nil
	if !src.frozen {
		// Deep copy: src keeps its pages private, so sharing would alias
		// live stores. Fresh private pages reset m's snapshot lineage.
		m.pages = make(map[uint64]*memPage, len(src.pages))
		for id, page := range src.pages {
			m.pages[id] = &memPage{gen: m.gen, data: page.data}
		}
		m.base = nil
		m.dirty = m.dirty[:0]
		return
	}
	if m.base == src {
		// Revert-by-generation fast path: everything not in the dirty log
		// still matches the snapshot, so only dirtied pages need reverting.
		for _, id := range m.dirty {
			if page, ok := src.pages[id]; ok {
				m.pages[id] = page
			} else {
				delete(m.pages, id)
			}
		}
	} else {
		m.pages = make(map[uint64]*memPage, len(src.pages))
		for id, page := range src.pages {
			m.pages[id] = page
		}
	}
	// The memory now shares every page with src (and possibly with younger
	// snapshots of the same lineage); a generation strictly above both sides
	// forces copy-on-write for all of them.
	if src.gen > m.gen {
		m.gen = src.gen
	}
	m.gen++
	m.base = src
	m.dirty = m.dirty[:0]
}

// VisitPages calls fn for every materialized page with its page ID and word
// contents, in unspecified order. The words must not be mutated: on a
// snapshot they are immutable and possibly shared; on a live memory mutation
// would bypass copy-on-write. Page ID p covers addresses [p<<12, (p+1)<<12).
func (m *Memory) VisitPages(fn func(pageID uint64, words []uint64)) {
	for id, page := range m.pages {
		fn(id, page.data[:])
	}
}

var zeroPage memPage

// Equal reports whether the two memories hold identical contents at every
// address. It is the convergence check behind decided-outcome fault
// classification: a page shared by both page tables (the common case when
// one side descends from a snapshot of the other — the copy-on-write
// machinery shares pages by pointer until first write) compares in O(1) by
// identity; only pages one side materialized privately are word-compared. A
// page present on one side only is compared against zeros, because a
// never-materialized page reads as zero.
func (m *Memory) Equal(o *Memory) bool {
	for id, p := range m.pages {
		q, ok := o.pages[id]
		switch {
		case ok && p == q:
			// Shared by reference: identical by construction.
		case ok:
			if p.data != q.data {
				return false
			}
		default:
			if p.data != zeroPage.data {
				return false
			}
		}
	}
	for id, q := range o.pages {
		if _, ok := m.pages[id]; !ok && q.data != zeroPage.data {
			return false
		}
	}
	return true
}
