package pipeline

import (
	"math/bits"

	"itr/internal/isa"
)

// storeOverlay is the speculative memory view: committed memory plus a
// word-granular overlay of in-flight (uncommitted) stores. Flushing the
// pipeline discards the overlay, rolling memory back to the committed image
// without copying it.
//
// Each entry carries the merged speculative word plus a count of the
// in-flight stores that wrote it. When a store commits (committed memory now
// holds its effect) the count drops, and the entry is deleted with the last
// one: the overlay holds only genuinely in-flight words, at most one per ROB
// slot, so speculative loads in store-free stretches take the empty-overlay
// fast path instead of paying a lookup against every store the run ever
// made.
//
// The entries live in an open-addressed table with linear probing and
// backward-shift deletion, sized at twice the ROB ring. Every live entry
// belongs to at least one in-flight store, so the table is never more than
// half full and never allocates after construction; insert still doubles it
// should more entries ever be live.
type specWord struct {
	addr uint64 // the 8-byte-aligned address
	word uint64 // merged speculative value of the word
	refs uint32 // in-flight (dispatched, uncommitted) stores to it; 0 marks a free slot
}

type storeOverlay struct {
	base  *isa.Memory
	slots []specWord // length a power of two
	shift uint8      // 64 - log2(len(slots)): home slots take the hash's top bits
	n     int        // live entries
}

var _ isa.MemBus = (*storeOverlay)(nil)

// newStoreOverlay returns an empty overlay over base for a ROB ring of
// ringLen slots, a power of two.
func newStoreOverlay(base *isa.Memory, ringLen int) *storeOverlay {
	o := &storeOverlay{base: base}
	o.alloc(2 * ringLen)
	return o
}

// alloc installs an empty table of size slots, a power of two.
func (o *storeOverlay) alloc(size int) {
	o.slots = make([]specWord, size)
	o.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	o.n = 0
}

// home returns the slot where the probe for aligned address wa starts
// (Fibonacci hashing of the word index).
func (o *storeOverlay) home(wa uint64) int {
	return int((wa >> 3) * 0x9e3779b97f4a7c15 >> o.shift)
}

// find returns the slot holding wa, or the free slot ending its probe.
func (o *storeOverlay) find(wa uint64) (i int, ok bool) {
	mask := len(o.slots) - 1
	for i = o.home(wa); ; i = (i + 1) & mask {
		switch e := &o.slots[i]; {
		case e.refs == 0:
			return i, false
		case e.addr == wa:
			return i, true
		}
	}
}

// insert adds e, whose address is not in the table, and returns its slot.
func (o *storeOverlay) insert(e specWord) int {
	if 2*(o.n+1) > len(o.slots) {
		old := o.slots
		o.alloc(2 * len(old))
		for _, x := range old {
			if x.refs != 0 {
				o.insert(x)
			}
		}
	}
	i, _ := o.find(e.addr)
	o.slots[i] = e
	o.n++
	return i
}

// remove frees slot i, shifting later entries of its probe run back so
// every entry stays reachable from its home slot.
func (o *storeOverlay) remove(i int) {
	mask := len(o.slots) - 1
	for j := (i + 1) & mask; o.slots[j].refs != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (i, j].
		if (j-o.home(o.slots[j].addr))&mask >= (j-i)&mask {
			o.slots[i] = o.slots[j]
			i = j
		}
	}
	o.slots[i] = specWord{}
	o.n--
}

// word returns the current speculative value of the aligned 8-byte word.
func (o *storeOverlay) word(wa uint64) uint64 {
	if o.n != 0 {
		if i, ok := o.find(wa); ok {
			return o.slots[i].word
		}
	}
	return o.base.Load(wa, 8)
}

// Load reads size bytes through the overlay. Accesses align down to their
// size, so they never straddle an 8-byte word (matching isa.Memory).
func (o *storeOverlay) Load(addr uint64, size uint8) uint64 {
	if size == 0 {
		return 0
	}
	addr &^= uint64(size) - 1
	w := o.word(addr &^ 7)
	shift := (addr & 7) * 8
	switch size {
	case 1:
		return (w >> shift) & 0xff
	case 2:
		return (w >> shift) & 0xffff
	case 4:
		return (w >> shift) & 0xffffffff
	default:
		return w
	}
}

// Store writes size bytes into the overlay only; committed memory is updated
// separately when the store commits.
func (o *storeOverlay) Store(addr uint64, size uint8, v uint64) {
	if size == 0 {
		return
	}
	addr &^= uint64(size) - 1
	wa := addr &^ 7
	i, ok := o.find(wa)
	if !ok {
		i = o.insert(specWord{addr: wa, word: o.base.Load(wa, 8)})
	}
	e := &o.slots[i]
	shift := (addr & 7) * 8
	switch size {
	case 1:
		e.word = e.word&^(uint64(0xff)<<shift) | (v&0xff)<<shift
	case 2:
		e.word = e.word&^(uint64(0xffff)<<shift) | (v&0xffff)<<shift
	case 4:
		e.word = e.word&^(uint64(0xffffffff)<<shift) | (v&0xffffffff)<<shift
	default:
		e.word = v
	}
	e.refs++
}

// commitStore releases one in-flight store to the word holding addr. The
// last release deletes the entry: the commit stage has just applied the
// store to committed memory, which therefore now equals the merged word.
func (o *storeOverlay) commitStore(addr uint64) {
	i, ok := o.find(addr &^ 7)
	if !ok {
		return
	}
	if o.slots[i].refs <= 1 {
		o.remove(i)
		return
	}
	o.slots[i].refs--
}

// Reset discards all speculative words (pipeline flush).
func (o *storeOverlay) Reset() {
	if o.n != 0 {
		clear(o.slots)
		o.n = 0
	}
}

// live returns a copy of the live entries, nil when there are none: a
// snapshot's capture of the overlay.
func (o *storeOverlay) live() []specWord {
	if o.n == 0 {
		return nil
	}
	out := make([]specWord, 0, o.n)
	for _, e := range o.slots {
		if e.refs != 0 {
			out = append(out, e)
		}
	}
	return out
}

// restore replaces the overlay's entries with a capture that live took.
func (o *storeOverlay) restore(live []specWord) {
	o.Reset()
	for _, e := range live {
		o.insert(e)
	}
}

// specState is the dispatch-time execution view: speculative register files
// over the committed memory + store overlay. Flushes copy the committed
// registers back and reset the overlay.
type specState struct {
	arch    isa.ArchState // speculative registers; Mem points at the overlay
	overlay *storeOverlay
}

func newSpecState(committed *isa.ArchState, mem *isa.Memory, ringLen int) *specState {
	s := &specState{overlay: newStoreOverlay(mem, ringLen)}
	s.arch.R = committed.R
	s.arch.F = committed.F
	s.arch.Mem = s.overlay
	return s
}

// restore rolls the speculative view back to the committed state.
func (s *specState) restore(committed *isa.ArchState) {
	s.arch.R = committed.R
	s.arch.F = committed.F
	s.overlay.Reset()
}
