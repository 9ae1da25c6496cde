// Package cache implements a generic set-associative cache engine with true
// LRU replacement. It backs the ITR cache (keys are trace start PCs, values
// are trace signatures) and the coverage simulators that cannot share
// core.SimBank's recency stacks. It keeps no event counters: the access
// counts behind Figure 9 come from the coverage simulator.
//
// Associativity spans the full design space of the paper's Section 3:
// direct-mapped, 2/4/8/16-way, and fully associative.
//
// The caches a run builds are the pipeline's 2-way ITR cache and the
// coverage simulators that cannot share core.SimBank's recency stacks
// (CheckedLRU ones), so the layout is chosen for small, low-associativity
// sets: all lines live in one flat array (stable pointers, one allocation),
// tag scans run over a separate compact key array (8 bytes per way instead
// of a full Line), and victims come from a minimum-stamp scan of the set's
// entries in a parallel recency-stamp array. Wider geometries, fully
// associative included, run the same scans at O(ways) per access. Captured
// states hold the lines as Chunks, so a snapshot series shares the lines
// that did not change between captures.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
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
// layer stores trace signatures). Its recency stamp lives outside it, in the
// cache's parallel LRU array, so repeated hits leave the line unchanged and
// snapshot captures keep sharing it; only its first hit changes it, by
// setting Referenced.
type Line struct {
	Key   uint64
	Value uint64
	// Aux carries caller-defined per-line metadata (the ITR layer stores
	// the instruction count of the trace that installed the signature).
	Aux uint64
	// Stamp is a caller-defined installation timestamp (the ITR layer
	// stores the committed-instruction count at install, which the
	// checkpointing extension compares against checkpoint ages).
	Stamp int64
	Valid bool
	// Referenced records whether the line has hit at least once since it
	// was inserted. Evicting a line with Referenced == false is exactly the
	// paper's "eviction of an unreferenced, missed instance" — a loss in
	// fault detection coverage.
	Referenced bool
	// Checked records whether the line's signature has been confirmed
	// against a newly executed instance (used by ReplCheckedLRU).
	Checked bool
	// Parity is the caller-maintained parity bit over Value (Section 2.4).
	Parity bool
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
	keys []uint64
	// lru holds each line's recency stamp (the clock at its last hit or
	// install), parallel to lines.
	lru     []uint64
	assoc   int
	numSets int
	setMask uint64
	clock   uint64
	repl    Replacement
	// fill counts valid lines per set; steady-state inserts skip the
	// free-way scan entirely once a set is full.
	fill []int32
	// synced is the line table as last captured into or restored from: the
	// base the next CaptureState shares unchanged chunks with.
	synced *Chunks[Line]
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
		lru:     make([]uint64, entries),
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

// setIndex maps a key to its set. Keys are trace start PCs (instruction
// indexes), so low bits index directly as in a hardware PC-indexed structure.
func (c *Cache) setIndex(key uint64) uint64 { return key & c.setMask }

// Lookup finds key, updating LRU state and the Referenced flag on a hit.
// The returned pointer stays valid until the line is evicted; callers may
// update Value/Checked/Parity/Aux through it.
func (c *Cache) Lookup(key uint64) (*Line, bool) {
	if i := c.find(key); i >= 0 {
		c.clock++
		c.lru[i] = c.clock
		ln := &c.lines[i]
		ln.Referenced = true
		return ln, true
	}
	return nil, false
}

// Probe finds key without updating LRU or Referenced.
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
// lookup — the coverage simulator's miss path and the ITR checker's
// commit-time install call this once instead of Insert plus Probe.
func (c *Cache) InsertGet(key, value uint64) (ln *Line, evicted Line, wasEvicted bool) {
	c.clock++
	if i := c.find(key); i >= 0 {
		ln = &c.lines[i]
		ln.Value = value
		c.lru[i] = c.clock
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
	} else {
		c.fill[si]++
	}
	c.lines[victim] = Line{Key: key, Value: value, Valid: true}
	c.lru[victim] = c.clock
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
			if best < 0 || c.lru[i] < c.lru[best] {
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
			if c.lru[i] < c.lru[best] {
				best = i
			}
		}
		return best
	}
}

// State is an immutable capture of a cache's complete state: every line
// (valid or not) as chunks shared with the cache's previous capture wherever
// they are unchanged, the recency stamps as one flat copy (every hit rewrites
// one, so they would unshare the line chunks), plus the LRU clock. The
// key array and fill counts are left out: RestoreState rederives them. A
// State is never written through, so one state may be restored into many
// caches concurrently.
type State struct {
	lines   *Chunks[Line]
	lru     []uint64
	assoc   int
	numSets int
	repl    Replacement
	clock   uint64
}

// CaptureState snapshots the cache's state. Line chunks that equal the
// cache's last sync point (its previous capture, or the state it was last
// restored from) are shared with it rather than copied.
func (c *Cache) CaptureState() *State {
	c.synced = CaptureChunks(c.lines, c.synced)
	return &State{
		lines:   c.synced,
		lru:     slices.Clone(c.lru),
		assoc:   c.assoc,
		numSets: c.numSets,
		repl:    c.repl,
		clock:   c.clock,
	}
}

// Sharing reports how many line chunks the capture shared with the cache's
// previous sync point and how many it copied.
func (s *State) Sharing() (shared, copied int) { return s.lines.Sharing() }

// RestoreState overwrites the cache's entire state with s, preserving c's
// identity so existing references stay valid. The geometry and replacement
// policy must match the cache the state was captured from.
func (c *Cache) RestoreState(s *State) error {
	if c.assoc != s.assoc || c.numSets != s.numSets || c.repl != s.repl {
		return fmt.Errorf("cache: cannot restore %d-set/%d-way/repl-%d state into %d-set/%d-way/repl-%d cache",
			s.numSets, s.assoc, s.repl, c.numSets, c.assoc, c.repl)
	}
	s.lines.CopyTo(c.lines)
	copy(c.lru, s.lru)
	c.synced = s.lines
	c.clock = s.clock
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
// Invalidations are not evictions: they model recovery actions such as
// discarding a parity-faulty ITR line (Section 2.4).
func (c *Cache) Invalidate(key uint64) bool {
	if i := c.find(key); i >= 0 {
		si := int(i) / c.assoc
		c.lines[i] = Line{}
		c.keys[i] = 0
		c.lru[i] = 0
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

// Parity64 returns the even-parity bit of v (true when v has odd popcount).
func Parity64(v uint64) bool { return bits.OnesCount64(v)%2 == 1 }
