package core

import (
	"fmt"

	"itr/internal/sig"
)

// ROBEntry is one ITR ROB entry (Section 2.2): the start PC and signature of
// a dispatched trace, plus the one-hot-protected control state standing for
// the paper's {chk, miss, retry} bits.
type ROBEntry struct {
	StartPC   uint64
	Sig       uint64 // signature generated for this (new) instance
	CachedSig uint64 // signature read from the ITR cache on a hit
	Len       int    // instructions in this instance
	State     sig.ControlState

	detRecorded bool // detection already reported for this entry
}

// ROB is the ITR ROB: a ring of trace entries in dispatch order. Entries are
// addressed by absolute sequence number so branch-misprediction rollback can
// name the entry recorded in the branch's checkpoint, exactly as the paper
// describes. The ring is physically sized to a power of two (logical
// capacity unchanged) so the per-poll slot index is a mask, not a divide.
type ROB struct {
	entries []ROBEntry
	mask    uint64 // len(entries) - 1
	cap     int    // logical capacity (Full threshold)
	head    uint64 // sequence number of the oldest live entry
	tail    uint64 // sequence number one past the youngest live entry
}

// NewROB returns an ITR ROB with the given capacity. The paper sizes it to
// the number of branches that can be in flight; 64 comfortably covers a
// 128-entry main ROB.
func NewROB(capacity int) *ROB {
	if capacity <= 0 {
		capacity = 64
	}
	phys := 1
	for phys < capacity {
		phys <<= 1
	}
	return &ROB{entries: make([]ROBEntry, phys), mask: uint64(phys - 1), cap: capacity}
}

// Len returns the number of live entries.
func (r *ROB) Len() int { return int(r.tail - r.head) }

// Full reports whether dispatch must stall.
func (r *ROB) Full() bool { return r.Len() == r.cap }

// Alloc appends an entry at the tail, returning its sequence number.
// ok is false when the ROB is full.
func (r *ROB) Alloc(e ROBEntry) (seq uint64, ok bool) {
	if r.Full() {
		return 0, false
	}
	seq = r.tail
	r.entries[seq&r.mask] = e
	r.tail++
	return seq, true
}

// Head returns the oldest live entry, or nil when empty.
func (r *ROB) Head() *ROBEntry {
	if r.head == r.tail {
		return nil
	}
	return &r.entries[r.head&r.mask]
}

// HeadSeq returns the sequence number of the oldest live entry.
func (r *ROB) HeadSeq() uint64 { return r.head }

// At returns the live entry with the given sequence number, or nil.
func (r *ROB) At(seq uint64) *ROBEntry {
	if seq < r.head || seq >= r.tail {
		return nil
	}
	return &r.entries[seq&r.mask]
}

// Visit calls fn for every live entry, oldest first. Entries must not be
// reordered or freed during the walk.
func (r *ROB) Visit(fn func(*ROBEntry)) {
	for seq := r.head; seq != r.tail; seq++ {
		fn(&r.entries[seq&r.mask])
	}
}

// PopHead frees the oldest entry (called when the trace-terminating
// instruction commits, per Section 2.2).
func (r *ROB) PopHead() {
	if r.Len() > 0 {
		r.head++
	}
}

// SquashAfter removes every entry younger than keepSeq (entries with
// sequence number > keepSeq), implementing branch-misprediction rollback to
// the ITR ROB entry noted in the branch's checkpoint.
func (r *ROB) SquashAfter(keepSeq uint64) {
	if keepSeq+1 < r.head {
		r.tail = r.head
		return
	}
	if keepSeq+1 < r.tail {
		r.tail = keepSeq + 1
	}
}

// Clear removes all entries (ITR retry flush: the whole window is squashed
// and refetched).
func (r *ROB) Clear() { r.head, r.tail = 0, 0 }

func (r *ROB) String() string {
	return fmt.Sprintf("itr-rob[%d/%d head=%d]", r.Len(), len(r.entries), r.head)
}

// Clone returns a deep copy of the ROB (entries, head, tail) sharing nothing
// with the original.
func (r *ROB) Clone() *ROB {
	c := &ROB{entries: make([]ROBEntry, len(r.entries)), mask: r.mask, cap: r.cap, head: r.head, tail: r.tail}
	copy(c.entries, r.entries)
	return c
}

// CopyFrom overwrites the ROB's state with a deep copy of src, preserving
// r's identity. The capacities must match. src is only read.
func (r *ROB) CopyFrom(src *ROB) error {
	if len(r.entries) != len(src.entries) || r.cap != src.cap {
		return fmt.Errorf("itr-rob: cannot copy %d-entry state into %d-entry ROB", src.cap, r.cap)
	}
	copy(r.entries, src.entries)
	r.head, r.tail = src.head, src.tail
	return nil
}
