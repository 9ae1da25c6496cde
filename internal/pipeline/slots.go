package pipeline

import "itr/internal/isa"

// Structure-of-arrays uop storage for the in-flight window.
//
// The commit, issue and writeback stages scan the ROB every cycle, but each
// scan reads only a few fields per uop: issue wants the issued/done flags and
// the source operands, writeback the completion cycle and branch flags,
// commit the done flag plus the outcome of the single head entry. With the
// former array-of-structs layout every such read dragged a >150-byte uop
// record (decode signals + outcome + bookkeeping) through the cache; the
// columns below keep each field dense so a stage streams exactly the bytes it
// tests, and the six boolean fields compress into bitsets the issue scan can
// reject 64 slots at a time from.
//
// Slots are addressed by ROB slot index (sequence number & robMask). A slot's
// columns are written when a uop dispatches into it and are only meaningful
// while the slot is live (robHead <= seq < robTail): recycled slots keep
// stale column values, which nothing reads — dispatch rewrites every column
// it uses before advancing robTail.

// bitset is a packed per-slot boolean column (one bit per ROB slot).
type bitset []uint64

func (b bitset) get(i uint64) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i uint64)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i uint64)    { b[i>>6] &^= 1 << (i & 63) }

func (b bitset) put(i uint64, v bool) {
	if v {
		b.set(i)
	} else {
		b.clear(i)
	}
}

// Packed source operands: one word per operand, three per slot, in a flat
// [3*cap] column. The top two bits carry the operand kind (the former
// srcKind), the low 62 bits the producer's sequence number. A ready operand
// is the zero word, so unused operand slots need no separate count — they
// read as ready.
const (
	srcKindShift   = 62
	srcWordSeq     = uint64(1) << srcKindShift // waiting on producer seq (low bits)
	srcWordPhantom = uint64(2) << srcKindShift // can never become ready (fault-induced)
	srcSeqMask     = srcWordSeq - 1
)

// Per-slot flag bits, packed into one word of the flags column. A dispatch
// writes the whole word once; commit and writeback read it once and test
// bits, instead of touching one bitset per boolean.
const (
	slotValid     = uint64(1) << iota // slot has been dispatched into at least once
	slotWrongPath                     // fetched down a mispredicted path
	slotTraceEnd                      // terminates a trace (itrSeq/renameSeq valid)
	// slotBranching/slotUncond memoize d.IsBranching() / the FlagUncond bit
	// at dispatch so branch resolution never needs the decode signals.
	slotBranching
	slotUncond
)

// robSlots is the column store. All word-sized columns are carved from one
// backing slab, so cloning the whole store (snapshot capture) is two copies
// (slab, outcomes) instead of one per column.
type robSlots struct {
	capacity int // ring length (power of two)

	slab []uint64 // backing for every word column below

	// issued/done/ready are bitsets (one bit per slot): the issue scan
	// rejects a whole word of issued-or-completed slots at a time and accepts
	// only ready ones. All other per-slot booleans live in the flags column
	// as slot* bits.
	issued bitset
	done   bitset
	ready  bitset
	flags  []uint64

	pc       []uint64
	predNext []uint64
	// itrSeq/renameSeq are the checkers' ROB entry sequences (valid when
	// slotTraceEnd is set).
	itrSeq    []uint64
	renameSeq []uint64
	// decodeIndex and doneCycle are int64 values stored as uint64 (both are
	// non-negative); lat is the memoized isa.LatCycles of the dispatched
	// signals, so issue never needs the signals themselves.
	decodeIndex []uint64
	doneCycle   []uint64
	lat         []uint64
	srcs        []uint64 // 3 packed source words per slot

	// Operand wakeup state. pending counts a slot's unsatisfied source words;
	// it reaches zero exactly when the slot becomes ready. Each producer slot
	// heads an intrusive list of waiting source words: wakeHead[p] is the
	// first link (a flat srcs index, consumerSlot*3+operand), wakeNext[link]
	// the next, wakeNone the end. When a producer completes, walking its list
	// replaces the per-cycle readiness polling of every waiting slot.
	pending  []uint64
	wakeHead []uint64
	wakeNext []uint64

	outcome []isa.Outcome
}

// slotBitWords returns the bitset length covering capacity slots.
func slotBitWords(capacity int) int { return (capacity + 63) >> 6 }

// newRobSlots allocates a column store for a power-of-two ring length.
func newRobSlots(capacity int) robSlots {
	s := robSlots{
		capacity: capacity,
		slab:     make([]uint64, 3*slotBitWords(capacity)+16*capacity),
		outcome:  make([]isa.Outcome, capacity),
	}
	s.carve()
	return s
}

// carve points every column view at its region of the slab.
func (s *robSlots) carve() {
	bw := slotBitWords(s.capacity)
	n := s.capacity
	rest := s.slab
	take := func(k int) []uint64 {
		col := rest[:k:k]
		rest = rest[k:]
		return col
	}
	s.issued = take(bw)
	s.done = take(bw)
	s.ready = take(bw)
	s.flags = take(n)
	s.pc = take(n)
	s.predNext = take(n)
	s.itrSeq = take(n)
	s.renameSeq = take(n)
	s.decodeIndex = take(n)
	s.doneCycle = take(n)
	s.lat = take(n)
	s.srcs = take(3 * n)
	s.pending = take(n)
	s.wakeHead = take(n)
	s.wakeNext = take(3 * n)
}

// wakeNone terminates a producer's wakeup list. Fresh slots hold zeroes
// there, but a slot's list head is reset at dispatch — before the slot can
// complete — so the zero value is never walked.
const wakeNone = ^uint64(0)

// clone deep-copies the store (snapshot capture).
func (s *robSlots) clone() robSlots {
	c := robSlots{
		capacity: s.capacity,
		slab:     append([]uint64(nil), s.slab...),
		outcome:  append([]isa.Outcome(nil), s.outcome...),
	}
	c.carve()
	return c
}

// copyFrom overwrites the store's contents with src's, preserving the
// receiver's backing arrays (snapshot restore). Capacities must match; the
// caller (Restore) has already validated structural config equality.
func (s *robSlots) copyFrom(src *robSlots) {
	copy(s.slab, src.slab)
	copy(s.outcome, src.outcome)
}
