package sig

import (
	"testing"
	"testing/quick"

	"itr/internal/isa"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Len() != 0 || a.Value() != 0 {
		t.Fatal("zero accumulator not empty")
	}
	a.Add(0xff)
	a.Add(0x0f)
	if a.Value() != 0xf0 || a.Len() != 2 {
		t.Fatalf("value=%#x len=%d", a.Value(), a.Len())
	}
	a.Reset()
	if a.Len() != 0 || a.Value() != 0 {
		t.Fatal("reset incomplete")
	}
}

// Core ITR property: a single bit flip in any instruction's signal word
// changes the trace signature (the basis of fault detection, Section 2.1).
func TestPropertySingleFlipChangesSignature(t *testing.T) {
	if err := quick.Check(func(words []uint64, idxSel, bitSel uint8) bool {
		if len(words) == 0 {
			return true
		}
		if len(words) > isa.MaxTraceLen {
			words = words[:isa.MaxTraceLen]
		}
		idx := int(idxSel) % len(words)
		bit := int(bitSel) % 64

		var clean, faulty Accumulator
		for i, w := range words {
			clean.Add(w)
			if i == idx {
				w ^= 1 << uint(bit)
			}
			faulty.Add(w)
		}
		return clean.Value() != faulty.Value()
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The known limitation the paper accepts: an even number of identical-signal
// faults cancels (outside the single-event-upset model).
func TestEvenFaultsInSameSignalCancel(t *testing.T) {
	words := []uint64{1, 2, 3, 4}
	var clean, faulty Accumulator
	for i, w := range words {
		clean.Add(w)
		if i == 1 || i == 2 {
			w ^= 1 << 7 // same bit position in two instructions
		}
		faulty.Add(w)
	}
	if clean.Value() != faulty.Value() {
		t.Fatal("double fault in the same signal should cancel under XOR")
	}
}

// Signature is order-insensitive under XOR; that is acceptable because the
// ITR cache key (start PC) pins the instruction sequence. Verify the
// documented behaviour so a future change to an order-sensitive combiner is
// deliberate.
func TestSignatureOrderInsensitive(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(1)
	if a.Value() != b.Value() {
		t.Fatal("XOR combiner should be order-insensitive")
	}
}

// of accumulates the signature of an instruction sequence from the packed
// words isa.Decode gives it.
func of(insts []isa.Instruction) uint64 {
	var a Accumulator
	for _, inst := range insts {
		a.Add(isa.Decode(inst).Pack())
	}
	return a.Value()
}

func TestOfMatchesAccumulator(t *testing.T) {
	insts := []isa.Instruction{
		{Op: isa.OpAddi, Rd: 1, Imm: 5},
		{Op: isa.OpAdd, Rd: 2, Rs1: 1, Rs2: 1},
		{Op: isa.OpBne, Rs1: 2, Rs2: 0, Imm: 3},
	}
	var want uint64
	for _, inst := range insts {
		want ^= isa.Decode(inst).Pack()
	}
	if of(insts) != want {
		t.Fatal("accumulated signature is not the XOR of the packed words")
	}
}

func TestOfDistinguishesSequences(t *testing.T) {
	a := []isa.Instruction{{Op: isa.OpAddi, Rd: 1, Imm: 5}}
	b := []isa.Instruction{{Op: isa.OpAddi, Rd: 1, Imm: 6}}
	if of(a) == of(b) {
		t.Fatal("different immediates must produce different signatures")
	}
}

func TestControlStateOneHot(t *testing.T) {
	valid := []ControlState{CtrlNone, CtrlChkRetry, CtrlChk, CtrlMiss}
	for _, s := range valid {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	// Every non-one-hot pattern is invalid (a detectable control-bit fault).
	for v := 0; v < 16; v++ {
		s := ControlState(v)
		oneHot := v == 1 || v == 2 || v == 4 || v == 8
		if s.Valid() != oneHot {
			t.Errorf("state %#04b valid=%v want %v", v, s.Valid(), oneHot)
		}
	}
}

func TestControlStateSingleBitFlipsAreDetectable(t *testing.T) {
	// A single-event upset on the 4-bit control state always yields an
	// invalid (zero- or two-hot) pattern.
	for _, s := range []ControlState{CtrlNone, CtrlChkRetry, CtrlChk, CtrlMiss} {
		for bit := 0; bit < 4; bit++ {
			flipped := s ^ (1 << uint(bit))
			if flipped.Valid() {
				t.Errorf("flip bit %d of %v produced valid state %v", bit, s, flipped)
			}
		}
	}
}

func TestControlStatePredicates(t *testing.T) {
	if !CtrlChk.Checked() || !CtrlChkRetry.Checked() || CtrlMiss.Checked() || CtrlNone.Checked() {
		t.Error("Checked predicate wrong")
	}
	if !CtrlChkRetry.Retry() || CtrlChk.Retry() {
		t.Error("Retry predicate wrong")
	}
	if !CtrlMiss.Miss() || CtrlChk.Miss() {
		t.Error("Miss predicate wrong")
	}
}

func TestControlStateString(t *testing.T) {
	if CtrlNone.String() != "none" || CtrlMiss.String() != "miss" {
		t.Error("state names wrong")
	}
	if ControlState(0b0011).String() == "" {
		t.Error("invalid states need a rendering")
	}
}
