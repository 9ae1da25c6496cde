package core

import (
	"itr/internal/cache"
	"itr/internal/trace"
)

// This file implements the shared replay engine behind SimBank: one LRU
// recency stack per (set count) serving every LRU configuration that shares
// it, instead of one full cache simulation per configuration.
//
// The coverage replay touches every trace event the same way in every
// configuration — look the start PC up, and install it on a miss — so each
// configuration's set contents obey the LRU inclusion property (Mattson et
// al., 1970): an A-way set holds exactly the A most recently touched keys of
// that set. All configurations with the same set count therefore see the
// *same* per-set recency order and differ only in how deep into it they can
// hold lines. One recency stack per set answers hit/miss for every lane
// (associativity) at once: a key found at depth d hits every lane wider than
// d and misses the rest, and the line a missing lane of width A evicts is
// precisely the key at depth A-1 of that stack.
//
// Within the paper's 18-configuration design space this collapses 18 cache
// simulations per event into 8 stack updates (e.g. fa/256, fa/512 and
// fa/1024 share the single-set stack; dm/1024, 2-way/512 and 4-way/256 share
// the 256-set stack), which is where the single-pass sweep's speedup over
// the per-cell replay comes from. Per-lane coverage accounting rides on the
// stack entries, so every lane's Result is bit-identical to a standalone
// CoverageSim's — a property the core and report tests enforce.
//
// Per-entry lane state is two words. Coverage needs, per lane, a referenced
// bit and the installing instance's instruction count (the weight an
// unreferenced eviction charges to detection loss). The weights collapse to
// one value per entry: every touch reinstalls the entry in exactly the lanes
// it missed, all with the *current* event's weight, and sets the referenced
// bit in all the lanes it hit — so afterwards every unreferenced lane of the
// entry carries the same weight, that of its most recent event, and
// referenced lanes never have their weight read. One meta word therefore
// packs the whole lane state: a referenced bitmask in the low byte and the
// shared weight above it.
//
// Two stack layouts serve different depths:
//
//   - arrayGroup (depth < 32): each set's stack is a contiguous
//     most-recent-first array, so depth is literally the position. A touch
//     is one fused scan-and-shift pass: entries rotate down one slot as the
//     scan walks, and each missing lane's victim — the entry sliding across
//     that lane's boundary — is whatever the rotation carry holds when it
//     crosses, so eviction accounting reads registers, not memory. This is
//     the layout for every set-associative group.
//   - listGroup (depth >= 32, i.e. the fully associative group): a doubly
//     linked list per set with a key->node map, a band tag per node
//     (which inter-lane region its depth falls in), and one boundary marker
//     per lane pointing at that lane's current LRU node, so a touch is O(1)
//     in the stack depth instead of an O(depth) shift.
//
// Only ReplLRU configurations are eligible: CheckedLRU victims depend on
// per-configuration Checked bits, which breaks inclusion. SimBank falls back
// to standalone simulators for those.

// replayGroup is the executor interface SimBank drives: one shared stack
// structure standing in for all member configurations of one set count.
// Access is block-at-a-time: the bank hands each group a whole block of
// events pre-packed one word each (see packEvent), which keeps the group's
// working set hot, streams an eighth of the raw event bytes through every
// group, and amortizes per-call overhead over thousands of events.
type replayGroup interface {
	accessBlock(packed []uint64)
	// addMeasured accumulates the block's measured totals, computed once by
	// the bank — they are identical for every group, so no group counts them
	// per event.
	addMeasured(events, insts int64)
	result(lane int, cfg Config) Result
}

// Packed-event layout: the replay needs only a trace event's start PC, its
// instruction count, and its warm-up decision, so the bank packs all three
// into one word per event — the only per-event data the eight group loops
// stream. PCs are program counters, bounded far below 2^48 (packEvent checks);
// Len is capped at the trace-formation limit, far below 2^15.
const (
	packPCBits  = 48
	packPCMask  = uint64(1)<<packPCBits - 1
	packWarmBit = uint64(1) << 63
)

// packEvent packs one event and its warm-up decision. The warm flag is the
// sign bit, so group loops test "measured" with one signed compare.
func packEvent(ev trace.Event, warm bool) uint64 {
	if ev.StartPC > packPCMask {
		panic("core: trace event PC exceeds packed-replay range")
	}
	p := ev.StartPC | uint64(ev.Len)<<packPCBits
	if warm {
		p |= packWarmBit
	}
	return p
}

// groupIndexedCapMin is the stack depth at which the list layout (with a key
// map) replaces the positional array layout, mirroring the cache engine's
// indexing threshold.
const groupIndexedCapMin = 32

// metaRefBits is the width of the referenced bitmask in an entry's meta
// word; the installing weight lives in the bits above. Groups never have
// more lanes than this: array groups' associativities are powers of two
// below groupIndexedCapMin, and the list layout caps lanes at 64 via its own
// mask (beyond metaRefBits it stores weights unpacked — see listGroup).
const metaRefBits = 8

// groupTallies is the accounting shared by both layouts.
//
// Hit/miss counting never loops over lanes: an event touching band b (the
// index of the first lane wide enough to hold the key's depth; lane count
// for a cold miss) hits every lane from b up and misses every lane below, so
// one tally of band b records the outcome for all lanes at once, and
// per-lane totals fall out as prefix/suffix sums at result time. Only
// eviction bookkeeping — inherently per missing lane — runs per event.
// Both tally families are interleaved triples to keep the hot loops on one
// slice header and one cache line.
type groupTallies struct {
	ways []int32 // ascending distinct associativities (lanes)

	// bands[3b] counts events touching band b; bands[3b+1] those that were
	// measured (post-warm-up); bands[3b+2] their instruction weight.
	bands []int64
	// evs[3l] counts lane l's evictions; evs[3l+1] those of never-referenced
	// lines; evs[3l+2] sums the installing weights of never-referenced lines
	// evicted by measured events — the paper's detection loss.
	evs []int64

	// Group-level measured totals, identical for every lane, accumulated by
	// the bank via addMeasured.
	measuredEvents int64
	measuredInsts  int64
}

func (t *groupTallies) addMeasured(events, insts int64) {
	t.measuredEvents += events
	t.measuredInsts += insts
}

func newGroupTallies(ways []int32) groupTallies {
	nb := 3 * (len(ways) + 1)
	buf := make([]int64, nb+3*len(ways))
	return groupTallies{
		ways:  ways,
		bands: buf[:nb:nb],
		evs:   buf[nb:],
	}
}

// tally records one event of evLen instructions touching band b.
func (t *groupTallies) tally(b int, evLen int64, warm bool) {
	i := 3 * b
	t.bands[i]++
	if !warm {
		t.bands[i+1]++
		t.bands[i+2] += evLen
	}
}

// assemble builds the lane's coverage Result for one member configuration,
// field for field what a standalone CoverageSim fed the same event sequence
// computes. MissFallback only reroutes the miss accounting: missed instances
// are covered by the redundant fetch, so they charge FallbackInsts instead
// of recovery loss and their evictions stop charging detection loss.
func (t *groupTallies) assemble(lane int, cfg Config, residentUnref int) Result {
	var hits, misses, measuredMisses, measuredMissInsts int64
	for b := 0; b <= len(t.ways); b++ {
		if b <= lane {
			hits += t.bands[3*b]
		} else {
			misses += t.bands[3*b]
			measuredMisses += t.bands[3*b+1]
			measuredMissInsts += t.bands[3*b+2]
		}
	}
	missInsts, fallbackInsts, evictedLoss := measuredMissInsts, int64(0), t.evs[3*lane+2]
	if cfg.MissFallback {
		missInsts, fallbackInsts, evictedLoss = 0, measuredMissInsts, 0
	}
	r := Result{
		Config:      cfg,
		TotalInsts:  t.measuredInsts,
		TraceEvents: t.measuredEvents,
		CacheStats: cache.Stats{
			Hits:                  hits,
			Misses:                misses,
			Inserts:               misses, // the replay installs on every miss
			Evictions:             t.evs[3*lane],
			EvictionsUnreferenced: t.evs[3*lane+1],
		},
		ResidentUnreferenced: residentUnref,
		FallbackInsts:        fallbackInsts,
		Reads:                t.measuredEvents,
		Writes:               measuredMisses,
	}
	if t.measuredInsts > 0 {
		r.DetectionLoss = 100 * float64(evictedLoss) / float64(t.measuredInsts)
		r.RecoveryLoss = 100 * float64(missInsts) / float64(t.measuredInsts)
	}
	return r
}

// ---- positional array layout (set-associative groups, depth < 32) ----

// arrayGroup keeps each set's recency stack as a most-recent-first array of
// interleaved (key, meta) word pairs: kv[2(base+p)] is the p-th most
// recently touched key of the set, kv[2(base+p)+1] its packed lane state
// (referenced bitmask | weight<<metaRefBits). Interleaving keeps the fused
// rotation on a single forward stream — every element's two words load and
// store together.
type arrayGroup struct {
	groupTallies
	setMask     uint64
	cap         int
	laneMaskAll uint64
	kv          []uint64
	length      []int32 // per set: live entries
}

// noKey fills empty key slots so the hot loops need no occupancy check:
// trace keys are program counters, which never reach ^uint64(0).
const noKey = ^uint64(0)

func newArrayGroup(numSets int, ways []int32) *arrayGroup {
	depth := int(ways[len(ways)-1])
	g := &arrayGroup{
		groupTallies: newGroupTallies(ways),
		setMask:      uint64(numSets - 1),
		cap:          depth,
		laneMaskAll:  uint64(1)<<len(ways) - 1,
		kv:           make([]uint64, 2*numSets*depth),
		length:       make([]int32, numSets),
	}
	for i := 0; i < len(g.kv); i += 2 {
		g.kv[i] = noKey
	}
	return g
}

// accessBlock replays one buffered block. The loop body inlines only the
// dominant case — a re-touch of the most recent key, which hits every lane
// and moves nothing — with its tallies batched in registers; anything that
// reorders the stack drops to accessSlow.
func (g *arrayGroup) accessBlock(packed []uint64) {
	if g.cap == 1 {
		g.accessBlockDM(packed)
		return
	}
	kv, length := g.kv, g.length
	setMask, depth, laneMaskAll := g.setMask, g.cap, g.laneMaskAll
	var e0, m0, i0 int64 // band-0 (all-lanes-hit) tallies
	for _, p := range packed {
		pc := p & packPCMask
		set := int(pc & setMask)
		base := set * depth
		if kv[2*base] == pc {
			// Already most recent: every lane hits and references the line.
			e0++
			if int64(p) >= 0 { // measured (warm flag is the sign bit)
				m0++
				i0 += int64(p<<1) >> (packPCBits + 1)
			}
			kv[2*base+1] |= laneMaskAll
			continue
		}
		g.accessSlow(pc, int64(p<<1)>>(packPCBits+1), int64(p) < 0, set, base, int(length[set]))
	}
	g.bands[0] += e0
	g.bands[1] += m0
	g.bands[2] += i0
}

// accessBlockDM is the depth-1 specialization (a single direct-mapped lane,
// the group with the most sets): every touch is either a top hit or an
// evict-and-replace, so the whole replay inlines here with the tallies and
// eviction counters batched in registers — no accessSlow call per miss.
func (g *arrayGroup) accessBlockDM(packed []uint64) {
	kv, length := g.kv, g.length
	setMask := g.setMask
	var e0, m0, i0 int64    // band 0: the line hit
	var e1, m1, i1 int64    // band 1: the line missed
	var ev0, un0, ax0 int64 // lane-0 eviction tallies
	for _, p := range packed {
		pc := p & packPCMask
		set := int(pc & setMask)
		k := kv[2*set]
		if k == pc {
			e0++
			if int64(p) >= 0 {
				m0++
				i0 += int64(p<<1) >> (packPCBits + 1)
			}
			kv[2*set+1] |= 1
			continue
		}
		warm := int64(p) < 0
		if k != noKey {
			m := kv[2*set+1]
			ev0++
			if m&1 == 0 {
				un0++
				if !warm {
					ax0 += int64(m >> metaRefBits)
				}
			}
		} else {
			length[set] = 1
		}
		e1++
		var meta uint64
		if warm {
			meta = 1 // born referenced, zero weight
		} else {
			evLen := int64(p<<1) >> (packPCBits + 1)
			m1++
			i1 += evLen
			meta = uint64(evLen) << metaRefBits
		}
		kv[2*set] = pc
		kv[2*set+1] = meta
	}
	g.bands[0] += e0
	g.bands[1] += m0
	g.bands[2] += i0
	g.bands[3] += e1
	g.bands[4] += m1
	g.bands[5] += i1
	g.evs[0] += ev0
	g.evs[1] += un0
	g.evs[2] += ax0
}

// accessSlow handles every touch that reorders the stack: a hit below the
// top or a miss. It scans for the key (top already ruled out by the fast
// path), reads each missing lane's victim — the line at the lane's boundary
// position ways[l]-1 — directly, then shifts the moving prefix down one slot
// with a single overlapping copy (memmove) instead of rotating pairwise.
func (g *arrayGroup) accessSlow(pc uint64, evLen int64, warm bool, set, base, n int) {
	kv, ways := g.kv, g.ways
	lanes := len(ways)
	d := -1
	for j, p := 1, 2*base+2; j < n; j, p = j+1, p+2 {
		if kv[p] == pc {
			d = j
			break
		}
	}
	b := 0
	if d >= 0 {
		// Hit at depth d: every lane no wider than d misses, and each is
		// provably full (n > d >= ways[b]), so its victim is its boundary
		// line. The band is the count of missing lanes.
		for b < lanes && int(ways[b]) <= d {
			g.evict(b, kv[2*(base+int(ways[b]))-1], warm)
			b++
		}
		// Shift [0, d) down one slot; inline backward copy, since at depth
		// < 32 the move is far too short to amortize a memmove call.
		for p := 2 * (base + d); p > 2*base; p -= 2 {
			kv[p], kv[p+1] = kv[p-2], kv[p-1]
		}
	} else {
		// Cold miss: every lane misses, full or not. Full lanes (stack at
		// least their extent) evict their boundary line; wider ones have
		// room, and the stack grows unless at capacity, where the widest
		// lane's extent is the whole stack and the tail drops (its eviction
		// charged like any other boundary).
		b = lanes
		for li := 0; li < lanes && int(ways[li]) <= n; li++ {
			g.evict(li, kv[2*(base+int(ways[li]))-1], warm)
		}
		keep := n
		if n < g.cap {
			keep = n + 1
			g.length[set] = int32(keep)
		}
		for p := 2*(base+keep) - 2; p > 2*base; p -= 2 {
			kv[p], kv[p+1] = kv[p-2], kv[p-1]
		}
	}
	i := 3 * b
	g.bands[i]++
	if !warm {
		g.bands[i+1]++
		g.bands[i+2] += evLen
	}

	// Install at the front: lanes that hit (>= b) are referenced by this
	// touch; lanes that missed reinstall fresh. Either way the entry's
	// weight becomes this event's — zero for warm-up instances (born
	// referenced, so the skipped region can never be charged), the
	// instruction count for measured ones.
	kv[2*base] = pc
	if warm {
		kv[2*base+1] = g.laneMaskAll
	} else {
		kv[2*base+1] = uint64(evLen)<<metaRefBits | g.laneMaskAll&^(uint64(1)<<b-1)
	}
}

// evict charges lane li for evicting the line whose meta word is m.
func (g *arrayGroup) evict(li int, m uint64, warm bool) {
	g.evs[3*li]++
	if m&(uint64(1)<<li) == 0 {
		g.evs[3*li+1]++
		if !warm {
			g.evs[3*li+2] += int64(m >> metaRefBits)
		}
	}
}

// residentUnreferenced counts lines resident in the lane at end of replay
// that were never referenced — the truncation artifact CoverageSim reports.
func (g *arrayGroup) residentUnreferenced(lane int) int {
	w := int(g.ways[lane])
	bit := uint64(1) << lane
	n := 0
	for set := range g.length {
		depth := int(g.length[set])
		if depth > w {
			depth = w
		}
		base := set * g.cap
		for p := base; p < base+depth; p++ {
			if g.kv[2*p+1]&bit == 0 {
				n++
			}
		}
	}
	return n
}

func (g *arrayGroup) result(lane int, cfg Config) Result {
	return g.assemble(lane, cfg, g.residentUnreferenced(lane))
}

// ---- linked-list layout (the fully associative group, depth >= 32) ----

// listGroup keeps each set's recency stack as a doubly linked list over a
// flat node pool with a key->node map, so deep stacks never shift memory.
// Depth is tracked only as coarsely as the accounting needs it: each node
// carries its band (which inter-lane region its depth falls in), and each
// lane keeps a marker pointing at its boundary node — the lane's LRU line
// and next victim. A touch moves one node and slides at most one marker per
// missing lane. Lane state is a referenced bitmask (up to 64 lanes) plus the
// per-entry shared weight, here unpacked into its own array.
type listGroup struct {
	groupTallies
	setMask uint64
	cap     int

	// Node pool: set s owns slots [s*cap, (s+1)*cap). Slots are handed out
	// in order while a set fills; once full, the dropped tail's slot is
	// reused for the incoming key, so holes never form.
	key  []uint64
	ref  []uint64 // referenced-in-lane bitmask (bit l = lane l)
	aux  []int32  // installing weight of the entry's most recent event
	band []uint8  // depth band: b means depth in [ways[b-1], ways[b])
	next []int32
	prev []int32

	head   []int32 // per set: most recently used
	tail   []int32 // per set: least recently used
	length []int32 // per set: live nodes
	// marker[s*len(ways)+l] is the node at depth ways[l]-1 of set s — lane
	// l's LRU line and next victim — or -1 until the lane has filled.
	marker []int32

	// Open-addressing key index (linear probing): tabVal[i] is the node
	// owning tabKey[i], tabEmpty while never used, tabTomb after a delete.
	// tabPos[node] is the node's table position, making deletion one store.
	// The table is sized at twice the pool and rebuilt when tombstones crowd
	// it, so probes stay short.
	tabKey   []uint64
	tabVal   []int32
	tabPos   []int32
	tabMask  uint64
	tabShift uint
	live     int
	tombs    int
}

const (
	tabEmpty = int32(-1)
	tabTomb  = int32(-2)
	// tabHashMul is Fibonacci hashing's 64-bit multiplier; the top bits of
	// pc*tabHashMul index the table.
	tabHashMul = 0x9E3779B97F4A7C15
)

func newListGroup(numSets int, ways []int32) *listGroup {
	depth := int(ways[len(ways)-1])
	lanes := len(ways)
	n := numSets * depth
	tabSize := 1
	for tabSize < 2*n {
		tabSize *= 2
	}
	// All same-typed arrays carve one backing allocation each; full-width
	// capacities keep the carved slices from sharing append growth.
	u64 := make([]uint64, 2*n+tabSize)
	i32 := make([]int32, 4*n+tabSize+3*numSets+numSets*lanes)
	carve := func(k int) (s []int32) { s, i32 = i32[:k:k], i32[k:]; return }
	g := &listGroup{
		groupTallies: newGroupTallies(ways),
		setMask:      uint64(numSets - 1),
		cap:          depth,
		key:          u64[:n:n],
		ref:          u64[n : 2*n : 2*n],
		aux:          carve(n),
		band:         make([]uint8, n),
		next:         carve(n),
		prev:         carve(n),
		head:         carve(numSets),
		tail:         carve(numSets),
		length:       carve(numSets),
		marker:       carve(numSets * lanes),
		tabKey:       u64[2*n:],
		tabVal:       carve(tabSize),
		tabPos:       carve(n),
		tabMask:      uint64(tabSize - 1),
	}
	g.tabShift = 64
	for size := tabSize; size > 1; size /= 2 {
		g.tabShift--
	}
	for i := range g.head {
		g.head[i], g.tail[i] = -1, -1
	}
	for i := range g.marker {
		g.marker[i] = -1
	}
	for i := range g.tabVal {
		g.tabVal[i] = tabEmpty
	}
	return g
}

// tabInsert records pc -> node at the probe position accessBlock's inline
// probe reserved: the chain's first tombstone, or the empty slot ending it.
func (g *listGroup) tabInsert(pc uint64, node int32, ins uint64) {
	if g.tabVal[ins] == tabTomb {
		g.tombs--
	}
	g.tabKey[ins] = pc
	g.tabVal[ins] = node
	g.tabPos[node] = int32(ins)
	g.live++
	if (g.live+g.tombs)*4 > len(g.tabVal)*3 {
		g.tabRebuild()
	}
}

// tabDelete removes node's key in one store, leaving a tombstone.
func (g *listGroup) tabDelete(node int32) {
	g.tabVal[g.tabPos[node]] = tabTomb
	g.live--
	g.tombs++
}

// tabRebuild reinserts the live entries into a clean table, shedding
// tombstones. Amortized: it runs at most once per size/4 deletions. Keys come
// from the node pool, not the old table: a probe chain that wraps past the
// table end can reinsert an entry into a slot whose old entry is not yet
// visited.
func (g *listGroup) tabRebuild() {
	for i := range g.tabVal {
		g.tabVal[i] = tabEmpty
	}
	g.tombs = 0
	for set, n := range g.length {
		for v := int32(set * g.cap); v < int32(set*g.cap)+n; v++ {
			pc := g.key[v]
			j := (pc * tabHashMul) >> g.tabShift
			for g.tabVal[j] != tabEmpty {
				j = (j + 1) & g.tabMask
			}
			g.tabKey[j] = pc
			g.tabVal[j] = v
			g.tabPos[v] = int32(j)
		}
	}
}

func (g *listGroup) unlink(i int32, set int) {
	p, n := g.prev[i], g.next[i]
	if p >= 0 {
		g.next[p] = n
	} else {
		g.head[set] = n
	}
	if n >= 0 {
		g.prev[n] = p
	} else {
		g.tail[set] = p
	}
}

func (g *listGroup) pushFront(i int32, set int) {
	h := g.head[set]
	g.prev[i], g.next[i] = -1, h
	if h >= 0 {
		g.prev[h] = i
	} else {
		g.tail[set] = i
	}
	g.head[set] = i
}

// missLanes settles lanes [0, b) — the lanes that miss when x is accessed
// from band b (b == len(ways) on a cold insert): the boundary eviction where
// the lane is full, and the marker advance. When the set is at capacity and
// x reuses the dropped tail's slot, the widest lane's victim *is* that slot;
// each iteration therefore reads its lane's eviction state before access
// writes x's fresh state.
func (g *listGroup) missLanes(x int32, set, b int, warm bool) {
	lanes := len(g.ways)
	mbase := set * lanes
	for l := 0; l < b; l++ {
		if m := g.marker[mbase+l]; m >= 0 { // lane full: its boundary line is evicted
			g.evs[3*l]++
			if g.ref[m]&(uint64(1)<<l) == 0 {
				g.evs[3*l+1]++
				if !warm {
					g.evs[3*l+2] += int64(g.aux[m])
				}
			}
			// The evicted node slides one deeper; the node above it becomes
			// the lane's new boundary. When the boundary was the head, the
			// incoming x (about to become head at depth 0) is — which can
			// only happen for a direct-mapped lane.
			if p := g.prev[m]; p >= 0 {
				g.marker[mbase+l] = p
			} else {
				g.marker[mbase+l] = x
			}
			g.band[m] = uint8(l + 1)
		}
	}
}

// accessBlock replays one buffered block. The key probe is inlined, and the
// dominant case — a re-touch of the current head, which hits every lane and
// moves nothing (the head's band is always 0, and a marker pointing at the
// head has no node above it to inherit the boundary) — short-circuits with
// its tallies batched in registers; anything else takes hitSlow or coldMiss
// with the probe result passed down, never re-probing.
func (g *listGroup) accessBlock(packed []uint64) {
	tabKey, tabVal := g.tabKey, g.tabVal
	tabMask, tabShift := g.tabMask, g.tabShift
	ref, aux, head := g.ref, g.aux, g.head
	setMask := g.setMask
	var e0, m0, i0 int64 // band-0 (all-lanes-hit) tallies
	for _, p := range packed {
		pc := p & packPCMask
		j := (pc * tabHashMul) >> tabShift
		ins := ^uint64(0)
		node := int32(-1)
		for {
			v := tabVal[j]
			if v == tabEmpty {
				if ins == ^uint64(0) {
					ins = j
				}
				break
			}
			if v == tabTomb {
				if ins == ^uint64(0) {
					ins = j
				}
			} else if tabKey[j] == pc {
				node = v
				break
			}
			j = (j + 1) & tabMask
		}
		set := int(pc & setMask)
		evLen := int64(p<<1) >> (packPCBits + 1)
		warm := int64(p) < 0
		if node >= 0 {
			if head[set] == node {
				e0++
				ref[node] = ^uint64(0)
				if warm {
					aux[node] = 0
				} else {
					m0++
					i0 += evLen
					aux[node] = int32(evLen)
				}
				continue
			}
			if g.band[node] == 0 {
				// Band 0 below the head: every lane hits, so the touch is
				// pure move-to-front. The node is not the head, so it has a
				// predecessor to inherit lane 0's boundary if it held it.
				e0++
				ref[node] = ^uint64(0)
				if warm {
					aux[node] = 0
				} else {
					m0++
					i0 += evLen
					aux[node] = int32(evLen)
				}
				if mi := set * len(g.ways); g.marker[mi] == node {
					g.marker[mi] = g.prev[node]
				}
				g.unlink(node, set)
				g.pushFront(node, set)
				continue
			}
			g.hitSlow(evLen, warm, set, node)
		} else {
			g.coldMiss(pc, evLen, warm, set, ins)
		}
	}
	g.bands[0] += e0
	g.bands[1] += m0
	g.bands[2] += i0
}

// hitSlow handles a hit anywhere below the head: node is the live entry the
// block loop's probe found.
func (g *listGroup) hitSlow(evLen int64, warm bool, set int, node int32) {
	lanes := len(g.ways)
	b := int(g.band[node])
	g.tally(b, evLen, warm)
	if b > 0 {
		g.missLanes(node, set, b, warm)
	}
	// Lanes wider than the node's depth hit and reference the line; the
	// missed lanes reinstall it with this event's weight (zero and
	// referenced when warming).
	if warm {
		g.ref[node] = ^uint64(0)
		g.aux[node] = 0
	} else {
		g.ref[node] = (g.ref[node] | ^uint64(0)<<b) &^ (uint64(1)<<b - 1)
		g.aux[node] = int32(evLen)
	}
	// If the node sat exactly on its own band's boundary, the node above
	// it inherits the boundary as everything shallower slides down one.
	if g.marker[set*lanes+b] == node {
		if p := g.prev[node]; p >= 0 {
			g.marker[set*lanes+b] = p
		}
	}
	g.unlink(node, set)
	g.pushFront(node, set)
	g.band[node] = 0
}

// coldMiss installs a key absent from every lane; ins is the table slot the
// block loop's probe reserved for it.
func (g *listGroup) coldMiss(pc uint64, evLen int64, warm bool, set int, ins uint64) {
	lanes := len(g.ways)
	g.tally(lanes, evLen, warm)
	var slot int32
	if g.length[set] == int32(g.cap) {
		slot = g.tail[set] // the widest lane's victim; reuse its slot
		g.missLanes(slot, set, lanes, warm)
		g.tabDelete(slot)
		g.unlink(slot, set)
	} else {
		slot = int32(set*g.cap) + g.length[set]
		g.length[set]++
		g.missLanes(slot, set, lanes, warm)
	}
	if warm {
		g.ref[slot] = ^uint64(0)
		g.aux[slot] = 0
	} else {
		g.ref[slot] = 0
		g.aux[slot] = int32(evLen)
	}
	g.key[slot] = pc
	g.pushFront(slot, set)
	g.band[slot] = 0
	g.tabInsert(pc, slot, ins)
	// A lane whose associativity the set just reached is now full: its
	// boundary is the current tail, and from here on it evicts.
	newLen := g.length[set]
	mbase := set * lanes
	for l, w := range g.ways {
		if w == newLen {
			g.marker[mbase+l] = g.tail[set]
		}
	}
}

// residentUnreferenced counts lines resident in the lane at end of replay
// that were never referenced. A node is resident in lane l exactly when its
// band is at most l.
func (g *listGroup) residentUnreferenced(lane int) int {
	bit := uint64(1) << lane
	n := 0
	for set := range g.head {
		for nd := g.head[set]; nd >= 0; nd = g.next[nd] {
			if int(g.band[nd]) <= lane && g.ref[nd]&bit == 0 {
				n++
			}
		}
	}
	return n
}

func (g *listGroup) result(lane int, cfg Config) Result {
	return g.assemble(lane, cfg, g.residentUnreferenced(lane))
}

// newReplayGroup picks the stack layout for the group's depth.
func newReplayGroup(numSets int, ways []int32) replayGroup {
	if int(ways[len(ways)-1]) >= groupIndexedCapMin {
		return newListGroup(numSets, ways)
	}
	return newArrayGroup(numSets, ways)
}
