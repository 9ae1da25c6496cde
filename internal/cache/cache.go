// Package cache implements a generic set-associative cache engine with true
// LRU replacement. It backs the ITR cache (keys are trace start PCs, values
// are trace signatures) and the access-counting models used for the energy
// comparison of the paper's Section 5.
//
// Associativity spans the full design space of the paper's Section 3:
// direct-mapped, 2/4/8/16-way, and fully associative.
//
// The caches a run builds are the pipeline's 2-way ITR cache and the
// coverage simulators that cannot share core.SimBank's recency stacks
// (CheckedLRU ones), so the layout is chosen for small, low-associativity
// sets: all lines live in one flat array (stable pointers, one allocation),
// tag scans run over a separate compact key array (8 bytes per way instead
// of a full Line), and victims come from a minimum-stamp scan of the set.
// Wider geometries, fully associative included, run the same scans at
// O(ways) per access.
package cache

import (
	"fmt"
	"math/bits"
)

// Replacement selects a victim line within a set.
type Replacement int

// Replacement policies.
const (
	// ReplLRU evicts the least recently used line (the paper's baseline).
	ReplLRU Replacement = iota + 1
	// ReplCheckedLRU prefers evicting the least recently used line whose
	// Checked flag is set, falling back to plain LRU when no line in the
	// set is checked. This is the optimization sketched in Section 2.3 to
	// avoid evicting unreferenced (unchecked) signatures.
	ReplCheckedLRU
)

// Line is one cache line. Value semantics are owned by the caller (the ITR
// layer stores trace signatures).
type Line struct {
	Key   uint64
	Value uint64
	Valid bool
	// Referenced records whether the line has hit at least once since it
	// was inserted. Evicting a line with Referenced == false is exactly the
	// paper's "eviction of an unreferenced, missed instance" — a loss in
	// fault detection coverage.
	Referenced bool
	// Checked records whether the line's signature has been confirmed
	// against a newly executed instance (used by ReplCheckedLRU).
	Checked bool
	// Aux carries caller-defined per-line metadata (the ITR layer stores
	// the instruction count of the trace that installed the signature).
	Aux uint64
	// Stamp is a caller-defined installation timestamp (the ITR layer
	// stores the committed-instruction count at install, which the
	// checkpointing extension compares against checkpoint ages).
	Stamp int64
	// Parity is the caller-maintained parity bit over Value (Section 2.4).
	Parity bool

	lru uint64
}

// Stats counts cache events since construction or the last ResetStats.
type Stats struct {
	Hits                  int64
	Misses                int64
	Inserts               int64
	Evictions             int64
	EvictionsUnreferenced int64
}

// Cache is a set-associative cache. Use New to construct one; the zero value
// is not usable.
type Cache struct {
	// lines holds every line of every set contiguously: set s occupies
	// lines[s*assoc : (s+1)*assoc]. The array is allocated once in New and
	// never resized, so *Line pointers handed to callers stay valid until
	// the line is evicted.
	lines []Line
	// keys mirrors lines' Key fields for the tag scan: comparing 8-byte
	// keys touches an eighth of the memory a scan over whole Lines would.
	// A slot's key may be stale after an invalidation, so a key match is
	// confirmed against the Line before it counts.
	keys    []uint64
	assoc   int
	numSets int
	setMask uint64
	clock   uint64
	repl    Replacement
	stats   Stats
	// fill counts valid lines per set; steady-state inserts skip the
	// free-way scan entirely once a set is full.
	fill []int32
}

// FullyAssociative requests a single set spanning all entries.
const FullyAssociative = 0

// New returns a cache with the given total entry count and associativity.
// assoc == FullyAssociative (0) makes the cache fully associative; assoc == 1
// is direct-mapped. entries must be a positive power of two and divisible by
// assoc.
func New(entries, assoc int, repl Replacement) (*Cache, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("cache entries must be a positive power of two, got %d", entries)
	}
	if assoc == FullyAssociative {
		assoc = entries
	}
	if assoc < 0 || assoc > entries || entries%assoc != 0 {
		return nil, fmt.Errorf("associativity %d incompatible with %d entries", assoc, entries)
	}
	if repl != ReplLRU && repl != ReplCheckedLRU {
		return nil, fmt.Errorf("unknown replacement policy %d", repl)
	}
	numSets := entries / assoc
	return &Cache{
		lines:   make([]Line, entries),
		keys:    make([]uint64, entries),
		assoc:   assoc,
		numSets: numSets,
		setMask: uint64(numSets - 1),
		repl:    repl,
		fill:    make([]int32, numSets),
	}, nil
}

// MustNew is New but panics on configuration error; for tests and tables of
// known-good configurations.
func MustNew(entries, assoc int, repl Replacement) *Cache {
	c, err := New(entries, assoc, repl)
	if err != nil {
		panic(err)
	}
	return c
}

// Entries returns the total number of lines.
func (c *Cache) Entries() int { return c.assoc * c.numSets }

// Assoc returns the associativity (ways per set).
func (c *Cache) Assoc() int { return c.assoc }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setIndex maps a key to its set. Keys are trace start PCs (instruction
// indexes), so low bits index directly as in a hardware PC-indexed structure.
func (c *Cache) setIndex(key uint64) uint64 { return key & c.setMask }

// Lookup finds key, updating LRU state and the Referenced flag on a hit.
// The returned pointer stays valid until the line is evicted; callers may
// update Value/Checked/Parity/Aux through it.
func (c *Cache) Lookup(key uint64) (*Line, bool) {
	if i := c.find(key); i >= 0 {
		c.clock++
		ln := &c.lines[i]
		ln.lru = c.clock
		ln.Referenced = true
		c.stats.Hits++
		return ln, true
	}
	c.stats.Misses++
	return nil, false
}

// Probe finds key without updating LRU, Referenced, or statistics.
func (c *Cache) Probe(key uint64) (*Line, bool) {
	if i := c.find(key); i >= 0 {
		return &c.lines[i], true
	}
	return nil, false
}

// find returns the index of the valid line holding key, or -1.
func (c *Cache) find(key uint64) int32 {
	base := int(c.setIndex(key)) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		// The key slot can be stale after an invalidation, so confirm
		// against the line before counting the match.
		if c.keys[i] == key && c.lines[i].Valid && c.lines[i].Key == key {
			return int32(i)
		}
	}
	return -1
}

// Insert installs (key, value), evicting a victim if the set is full. It
// returns the evicted line (Valid == true) if an eviction occurred. If key is
// already present its line is overwritten in place (no eviction).
func (c *Cache) Insert(key, value uint64) (evicted Line, wasEvicted bool) {
	_, evicted, wasEvicted = c.InsertGet(key, value)
	return evicted, wasEvicted
}

// InsertGet is Insert returning the installed line as well, so callers that
// decorate fresh lines (Aux, Stamp, Parity, Checked) do not pay a second
// lookup — the miss path of the coverage sweep calls this once per miss
// instead of Insert plus Probe.
func (c *Cache) InsertGet(key, value uint64) (ln *Line, evicted Line, wasEvicted bool) {
	c.stats.Inserts++
	c.clock++
	if i := c.find(key); i >= 0 {
		ln = &c.lines[i]
		ln.Value = value
		ln.lru = c.clock
		return ln, Line{}, false
	}

	si := int(c.setIndex(key))
	base := si * c.assoc
	victim := -1
	if int(c.fill[si]) < c.assoc {
		for i := base; i < base+c.assoc; i++ {
			if !c.lines[i].Valid {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		victim = c.pickVictim(si)
		ev := &c.lines[victim]
		evicted = *ev
		wasEvicted = true
		c.stats.Evictions++
		if !evicted.Referenced {
			c.stats.EvictionsUnreferenced++
		}
	} else {
		c.fill[si]++
	}
	c.lines[victim] = Line{Key: key, Value: value, Valid: true, lru: c.clock}
	c.keys[victim] = key
	return &c.lines[victim], evicted, wasEvicted
}

// pickVictim chooses a victim index within the (full) set si per the policy.
func (c *Cache) pickVictim(si int) int {
	base := si * c.assoc
	switch c.repl {
	case ReplCheckedLRU:
		best := -1
		for i := base; i < base+c.assoc; i++ {
			if !c.lines[i].Checked {
				continue
			}
			if best < 0 || c.lines[i].lru < c.lines[best].lru {
				best = i
			}
		}
		if best >= 0 {
			return best
		}
		fallthrough
	default:
		best := base
		for i := base + 1; i < base+c.assoc; i++ {
			if c.lines[i].lru < c.lines[best].lru {
				best = i
			}
		}
		return best
	}
}

// State is an immutable, flat capture of a cache's complete state: every line
// (valid or not, preserving LRU ordering) in one contiguous array, plus the
// scalar counters. Capturing costs a single allocation, and the key array and
// fill counts are left out: RestoreState rederives them. A State is never
// written through, so one state may be restored into many caches
// concurrently.
type State struct {
	lines   []Line
	assoc   int
	numSets int
	repl    Replacement
	clock   uint64
	stats   Stats
}

// CaptureState snapshots the cache's state into a single flat allocation.
func (c *Cache) CaptureState() *State {
	s := &State{
		lines:   make([]Line, len(c.lines)),
		assoc:   c.assoc,
		numSets: c.numSets,
		repl:    c.repl,
		clock:   c.clock,
		stats:   c.stats,
	}
	copy(s.lines, c.lines)
	return s
}

// RestoreState overwrites the cache's entire state with s, preserving c's
// identity so existing references stay valid. The geometry and replacement
// policy must match the cache the state was captured from.
func (c *Cache) RestoreState(s *State) error {
	if c.assoc != s.assoc || c.numSets != s.numSets || c.repl != s.repl {
		return fmt.Errorf("cache: cannot restore %d-set/%d-way/repl-%d state into %d-set/%d-way/repl-%d cache",
			s.numSets, s.assoc, s.repl, c.numSets, c.assoc, c.repl)
	}
	copy(c.lines, s.lines)
	c.clock = s.clock
	c.stats = s.stats
	clear(c.fill)
	for i := range c.lines {
		c.keys[i] = 0
		if c.lines[i].Valid {
			c.keys[i] = c.lines[i].Key
			c.fill[i/c.assoc]++
		}
	}
	return nil
}

// Invalidate removes key if present, returning whether it was resident.
// Invalidations do not count as evictions in the statistics (they model
// recovery actions such as discarding a parity-faulty ITR line, Section 2.4).
func (c *Cache) Invalidate(key uint64) bool {
	if i := c.find(key); i >= 0 {
		si := int(i) / c.assoc
		c.lines[i] = Line{}
		c.keys[i] = 0
		c.fill[si]--
		return true
	}
	return false
}

// Visit calls fn for every valid line. Mutating lines through the pointer is
// allowed — except Key and Valid, which the key scan depends on; inserting
// or invalidating during a visit is not.
func (c *Cache) Visit(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// CountUnchecked returns the number of valid lines whose Checked flag is
// clear. The coarse-grain checkpointing extension (Section 2.3) takes a
// checkpoint when this reaches zero.
func (c *Cache) CountUnchecked() int {
	n := 0
	c.Visit(func(ln *Line) {
		if !ln.Checked {
			n++
		}
	})
	return n
}

// ResidentUnreferenced returns the number of valid lines never referenced
// since insertion (still-pending missed instances at end of simulation).
func (c *Cache) ResidentUnreferenced() int {
	n := 0
	c.Visit(func(ln *Line) {
		if !ln.Referenced {
			n++
		}
	})
	return n
}

// Parity64 returns the even-parity bit of v (true when v has odd popcount).
func Parity64(v uint64) bool { return bits.OnesCount64(v)%2 == 1 }
