package asm

import (
	"slices"
	"testing"

	"itr/internal/program"
)

// FuzzAssemble feeds arbitrary source to the assembler. Every input must
// either be rejected with an error or yield a program that disassembles to
// source assembling back to the same instructions, and that runs
// functionally without panicking for a bounded number of steps. The seed
// corpus lives in testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		dis := Disassemble(p)
		back, err := Assemble("fuzz", dis)
		if err != nil {
			t.Fatalf("disassembly does not assemble: %v\n%s", err, dis)
		}
		if !slices.Equal(back.Insts, p.Insts) {
			t.Fatalf("round trip changed the program:\n%s", dis)
		}
		program.Run(p, 4096, nil)
	})
}
