package program

import (
	"reflect"
	"sync"
	"testing"

	"itr/internal/isa"
)

// cornerInstructions enumerates every valid opcode crossed with field
// corners: register IDs at {0, mid, max}, shift amounts at {0, max},
// immediates at {0, max-positive, min-negative, all-ones}, and for the
// J-type opcodes the 26-bit direct target corners (whose decode splits the
// target across the imm, shamt and rsrc2 signal fields).
func cornerInstructions() []isa.Instruction {
	regs := []isa.RegID{0, 5, 31}
	shamts := []uint8{0, 31}
	imms := []uint16{0, 0x7fff, 0x8000, 0xffff}
	targets := []uint32{0, 1, 0xffff + 1, 1<<26 - 1}

	var insts []isa.Instruction
	for op := 0; op < 256; op++ {
		o := isa.Opcode(op)
		if !o.Valid() {
			continue
		}
		for _, rd := range regs {
			for _, rs1 := range regs {
				for _, rs2 := range regs {
					for _, sh := range shamts {
						for _, imm := range imms {
							inst := isa.Instruction{Op: o, Rd: rd, Rs1: rs1, Rs2: rs2, Shamt: sh, Imm: imm}
							if o == isa.OpJ || o == isa.OpJal {
								for _, tg := range targets {
									inst.Target = tg
									insts = append(insts, inst)
								}
							} else {
								insts = append(insts, inst)
							}
						}
					}
				}
			}
		}
	}
	return insts
}

// TestDecodeTableMatchesDecode is the memoization correctness property: for
// every static instruction, the precomputed table entry must equal a fresh
// isa.Decode of that instruction — signals structurally, words bit for bit.
func TestDecodeTableMatchesDecode(t *testing.T) {
	insts := cornerInstructions()
	p := &Program{Insts: insts}
	tab := p.DecodeTable()
	if tab.Len() != len(insts) {
		t.Fatalf("table length %d, want %d", tab.Len(), len(insts))
	}
	for i, inst := range insts {
		pc := uint64(i)
		want := isa.Decode(inst)
		if got := tab.Signals(pc); got != want {
			t.Fatalf("pc %d (%+v): memoized signals %+v, want %+v", pc, inst, got, want)
		}
		if got, want := tab.Word(pc), want.Pack(); got != want {
			t.Fatalf("pc %d (%+v): memoized word %#x, want %#x", pc, inst, got, want)
		}
	}
}

// TestDecodeTableOutOfRange checks the table mirrors Program.Fetch for PCs
// past the image: a halt instruction.
func TestDecodeTableOutOfRange(t *testing.T) {
	p := &Program{Insts: []isa.Instruction{{Op: isa.OpAddi, Rd: 1, Imm: 7}}}
	tab := p.DecodeTable()
	halt := isa.Decode(isa.Instruction{Op: isa.OpHalt})
	for _, pc := range []uint64{1, 2, 1 << 40} {
		if got := tab.Signals(pc); got != halt {
			t.Fatalf("pc %d: signals %+v, want halt %+v", pc, got, halt)
		}
		if got, want := tab.Word(pc), halt.Pack(); got != want {
			t.Fatalf("pc %d: word %#x, want halt %#x", pc, got, want)
		}
	}
}

// TestDecodeTableConcurrent publishes the table, and builds its lazy trace
// signature array, from many goroutines at once; all callers must observe
// the same table and the same signatures (run under -race in CI).
func TestDecodeTableConcurrent(t *testing.T) {
	p := &Program{Insts: cornerInstructions()[:64]}
	tabs := make([]*DecodeTable, 16)
	sigs := make([][]uint64, len(tabs))
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tabs[i] = p.DecodeTable()
			for pc := range p.Insts {
				sigs[i] = append(sigs[i], tabs[i].TraceSig(uint64(pc)))
			}
		}(i)
	}
	wg.Wait()
	for i, tab := range tabs {
		if tab != tabs[0] {
			t.Fatalf("goroutine %d observed a different table: %p vs %p", i, tab, tabs[0])
		}
		if !reflect.DeepEqual(sigs[i], sigs[0]) {
			t.Fatalf("goroutine %d read different trace signatures", i)
		}
	}
}
