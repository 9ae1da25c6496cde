package core

import (
	"fmt"
	"sort"

	"itr/internal/cache"
	"itr/internal/trace"
)

// WarmupLatch implements the warm-up boundary rule shared by every replay
// path (single-sim and SimBank): a trace event is attributed to warm-up only
// when it fits *entirely* within the warmupInsts prefix; the first event
// straddling the boundary — and every event after it — is measured. Without
// the latch, a short event following a long straddler could slip back under
// the warm-up threshold and be spuriously warmed.
//
// The decision depends only on the event sequence, never on any cache
// configuration, which is what makes a lockstep fan-out to many
// configurations legal: one Admit call per event governs every member.
type WarmupLatch struct {
	budget  int64
	warmed  int64
	warming bool
}

// NewWarmupLatch returns a latch admitting the first warmupInsts
// instructions' worth of whole events into warm-up. A budget of 0 (or
// negative) admits nothing: every event is measured.
func NewWarmupLatch(warmupInsts int64) WarmupLatch {
	return WarmupLatch{budget: warmupInsts, warming: warmupInsts > 0}
}

// Admit reports whether an event of n instructions belongs to the warm-up
// prefix, consuming warm-up budget when it does. Once an event fails to fit,
// the latch closes: every subsequent event is measured regardless of length.
func (l *WarmupLatch) Admit(n int) bool {
	if !l.warming {
		return false
	}
	if l.warmed+int64(n) <= l.budget {
		l.warmed += int64(n)
		return true
	}
	l.warming = false
	return false
}

// bankMember maps one configuration of the bank to its executor: a lane of a
// shared LRU stack group, or (for configurations the sharing cannot serve) a
// standalone CoverageSim.
type bankMember struct {
	cfg   Config // normalized, as CoverageSim would report it
	group replayGroup
	lane  int
	sim   *CoverageSim
}

// SimBank evaluates many cache configurations over a single trace-event
// stream — the engine behind the single-pass design-space sweep. Rather than
// replaying the stream once per configuration (the per-cell path), the bank
// reads each event exactly once and shares the simulation work itself:
// all LRU configurations with the same set count collapse into one recency
// stack with a boundary marker per associativity (see lanes.go), so the
// paper's 18-configuration sweep does 8 stack updates per event instead of
// 18 cache simulations. Configurations the inclusion property cannot serve
// (CheckedLRU) run as ordinary member simulators.
//
// The warm-up boundary latch lives in the bank, not in its members, so the
// warm/measure decision is made once per event and cannot diverge across
// configurations (or from the single-sim replay path, which uses the same
// WarmupLatch).
//
// Events arrive in slices (FeedBlock) and are replayed through the executors
// window by window, so one executor's working set at a time is hot instead
// of all of them thrashing each other per event. Every executor still
// observes the identical warm/measure sequence in the identical order, so
// results are bit-equal to a standalone CoverageSim fed event by event.
type SimBank struct {
	members []bankMember
	groups  []replayGroup
	sims    []*CoverageSim
	latch   WarmupLatch

	// warm is the reusable latch-decision buffer for windows that arrive
	// while the warm-up latch is open.
	warm []bool
	// allMeasured is a reusable all-false warm vector for FeedBlock windows
	// arriving after the warm-up latch has closed (the common case); it must
	// never be written.
	allMeasured []bool
	// packed is the reusable packed-event buffer replay hands the groups: one
	// word per event (see packEvent), built once per block.
	packed []uint64
}

// bankBlockEvents is the replay window size: large enough to amortize the
// per-executor loop switch, small enough (~64KB of events) to stay
// L2-resident alongside one executor's state.
const bankBlockEvents = 2048

// groupable reports whether the configuration can join a shared LRU stack
// group, and its geometry (set count, ways) if so. Eligibility requires LRU
// replacement — inclusion does not hold for CheckedLRU — and a geometry the
// cache engine accepts; anything else takes the standalone path, where an
// invalid geometry surfaces the cache constructor's error verbatim.
func groupable(cfg Config) (numSets, ways int, ok bool) {
	if cfg.Replacement != cache.ReplLRU {
		return 0, 0, false
	}
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		return 0, 0, false
	}
	ways = cfg.Assoc
	if ways == cache.FullyAssociative {
		ways = cfg.Entries
	}
	if ways < 0 || ways > cfg.Entries || cfg.Entries%ways != 0 {
		return 0, 0, false
	}
	return cfg.Entries / ways, ways, true
}

// NewSimBank builds a bank over the given configurations with a shared
// warm-up prefix of warmupInsts instructions.
func NewSimBank(configs []Config, warmupInsts int64) (*SimBank, error) {
	b := &SimBank{
		members:     make([]bankMember, len(configs)),
		latch:       NewWarmupLatch(warmupInsts),
		warm:        make([]bool, bankBlockEvents),
		allMeasured: make([]bool, bankBlockEvents),
		packed:      make([]uint64, bankBlockEvents),
	}
	// First pass: collect the lane demand per set count so each group is
	// built once with its full ascending lane list. Design spaces hold at
	// most a few dozen configurations, so flat slices with linear search
	// beat maps — and keep the bank's construction allocation count low
	// enough to matter against the per-cell path's.
	type demand struct {
		sets    int
		ways    []int32 // ascending, deduplicated
		members []int
	}
	var demands []demand
	for i, cfg := range configs {
		n := cfg.normalize()
		b.members[i].cfg = n
		if sets, w, ok := groupable(n); ok {
			di := -1
			for j := range demands {
				if demands[j].sets == sets {
					di = j
					break
				}
			}
			if di < 0 {
				demands = append(demands, demand{sets: sets})
				di = len(demands) - 1
			}
			d := &demands[di]
			pos := 0
			for pos < len(d.ways) && int(d.ways[pos]) < w {
				pos++
			}
			if pos == len(d.ways) || int(d.ways[pos]) != w {
				d.ways = append(d.ways, 0)
				copy(d.ways[pos+1:], d.ways[pos:])
				d.ways[pos] = int32(w)
			}
			d.members = append(d.members, i)
			continue
		}
		sim, err := NewCoverageSim(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg, err)
		}
		b.sims = append(b.sims, sim)
		b.members[i].sim = sim
	}
	for _, d := range demands {
		sets, ways := d.sets, d.ways
		if len(ways) > 64 {
			// The referenced bitmask holds 64 lanes; beyond that (never the
			// case for real design spaces) members run standalone.
			for _, mi := range d.members {
				sim, err := NewCoverageSim(b.members[mi].cfg)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", b.members[mi].cfg, err)
				}
				b.sims = append(b.sims, sim)
				b.members[mi].sim = sim
			}
			continue
		}
		g := newReplayGroup(sets, ways)
		b.groups = append(b.groups, g)
		for _, mi := range d.members {
			_, w, _ := groupable(b.members[mi].cfg)
			lane := sort.Search(len(ways), func(i int) bool { return int(ways[i]) >= w })
			b.members[mi].group = g
			b.members[mi].lane = lane
		}
	}
	return b, nil
}

// FeedBlock feeds a slice of events, in order, through the warm-up latch —
// warm while an event fits in the warm-up prefix, measured once the boundary
// latches — and replays it through the executors in bankBlockEvents windows
// sliced in place. It is the bank's one entry point: a stream may arrive in
// slices of any length, and the results depend only on the concatenated
// event sequence. The slice is read-only and not retained.
func (b *SimBank) FeedBlock(events []trace.Event) {
	for len(events) > 0 {
		chunk := events
		if len(chunk) > bankBlockEvents {
			chunk = chunk[:bankBlockEvents]
		}
		events = events[len(chunk):]
		warm := b.allMeasured[:len(chunk)]
		if b.latch.warming {
			warm = b.warm[:len(chunk)]
			for i, ev := range chunk {
				warm[i] = b.latch.Admit(ev.Len)
			}
		}
		b.replay(chunk, warm)
	}
}

// replay runs one block of events (with their warm-up decisions) through
// every executor in turn, so one executor's working set at a time is hot.
// One pass packs the block into one word per event — the only per-event data
// the group loops then stream — and counts the measured totals, identical
// for every group, once rather than per group per event.
func (b *SimBank) replay(events []trace.Event, warm []bool) {
	if len(b.groups) > 0 {
		packed := b.packed[:len(events)]
		var me, mi int64
		for i := range events {
			p := packEvent(events[i], warm[i])
			packed[i] = p
			if int64(p) >= 0 {
				me++
				mi += int64(events[i].Len)
			}
		}
		for _, g := range b.groups {
			g.addMeasured(me, mi)
			g.accessBlock(packed)
		}
	}
	for _, s := range b.sims {
		for i, ev := range events {
			if warm[i] {
				s.Warm(ev)
			} else {
				s.Access(ev)
			}
		}
	}
}

// Len returns the number of member configurations.
func (b *SimBank) Len() int { return len(b.members) }

// Result returns member i's accumulated coverage result — identical to what
// a standalone CoverageSim fed the same warm/measure sequence would report.
func (b *SimBank) Result(i int) Result {
	m := b.members[i]
	if m.group != nil {
		return m.group.result(m.lane, m.cfg)
	}
	return m.sim.Result()
}

// Results extracts every member's result in configuration order.
func (b *SimBank) Results() []Result {
	out := make([]Result, len(b.members))
	for i := range b.members {
		out[i] = b.Result(i)
	}
	return out
}
