// Regimen: the paper's closing argument is that ITR-style checks compose
// into "a regimen of low-overhead microarchitecture-level fault checks",
// each protecting a distinct part of the pipeline. This example arms the
// full regimen on one core and throws a different kind of transient fault at
// each protected structure:
//
//  1. a decode-signal fault   -> frontend ITR signature (Section 2)
//  2. a rename-index fault    -> rename-signature checker (Section 1)
//  3. an ITR-cache line fault -> parity protection (Section 2.4)
//
// All three are detected and recovered in the same run, with the committed
// instruction stream verified against a fault-free functional reference
// throughout, and coarse-grain checkpointing armed as the backstop.
package main

import (
	"fmt"
	"log"

	"itr"
	"itr/internal/cache"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

func buildProgram() *program.Program {
	b := program.NewBuilder("regimen")
	b.OpImm(isa.OpAddi, 1, 0, 6000)
	b.OpImm(isa.OpAddi, 4, 0, 0x4000)
	b.Label("loop")
	b.OpImm(isa.OpAddi, 2, 2, 1)
	b.Op(isa.OpMul, 3, 2, 2)
	b.Store(isa.OpSd, 3, 4, 0)
	b.Load(isa.OpLd, 5, 4, 0)
	b.Op(isa.OpXor, 6, 5, 2)
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func main() {
	prog := buildProgram()

	// A fault-free reference stream for end-to-end verification.
	type step struct {
		pc uint64
		o  isa.Outcome
	}
	var golden []step
	program.Run(prog, 0, func(pc uint64, _ isa.Instruction, o isa.Outcome) bool {
		golden = append(golden, step{pc, o})
		return true
	})

	// Arm the full regimen.
	cfg := itr.DefaultPipeline()
	cfg.ITR.Parity = true        // Section 2.4: parity-protected ITR cache lines
	cfg.RenameITREnabled = true  // Section 1: rename-index signatures
	cfg.CheckpointEnabled = true // Section 2.3: coarse-grain checkpoint backstop
	cpu, err := itr.NewCPU(prog, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Fault 1: decode-signal upset (rdst bit) around decode event 3000.
	decodeDone := false
	cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
		if !decodeDone && i >= 3000 && !wrongPath && d.NumRdst == 1 {
			decodeDone = true
			fmt.Println("fault 1: decode-signal upset (rdst field)")
			return d.FlipBit(36)
		}
		return d
	})

	// Fault 2: rename-index upset around decode event 9000 — invisible to
	// the frontend signature, caught by the rename checker.
	renameDone := false
	cpu.SetRenameFaultHook(func(i int64, ri pipeline.RenameIndexes) pipeline.RenameIndexes {
		if !renameDone && i >= 9000 && ri.NSrc >= 1 && ri.Src1 != 0 {
			renameDone = true
			fmt.Println("fault 2: rename-map index upset (src1)")
			ri.Src1 ^= 0x1f
		}
		return ri
	})

	// Verify every committed instruction against the reference.
	idx := 0
	cpu.SetCommitObserver(func(pc uint64, o *isa.Outcome) {
		if idx >= len(golden) {
			log.Fatalf("committed beyond the reference at %d", idx)
		}
		g := golden[idx]
		if pc != g.pc || !o.SameArchEffect(&g.o) {
			log.Fatalf("commit %d diverged from the fault-free reference", idx)
		}
		idx++
	})

	// Run the first half, then inject fault 3 directly into the ITR cache:
	// flip a stored signature bit (a fault on the checker's own state).
	cpu.Run(4_000)
	flipped := false
	cpu.Checker().Cache().Visit(func(ln *cache.Line) {
		if !flipped && ln.Referenced {
			flipped = true
			ln.Value ^= 1 << 13
		}
	})
	if flipped {
		fmt.Println("fault 3: ITR cache line upset (stored signature)")
	}

	res := cpu.Run(10_000_000)

	front := cpu.Checker().Stats()
	ren := cpu.RenameChecker().Stats()
	fmt.Printf("\ntermination:       %v after %d cycles\n", res.Termination, res.Cycles)
	fmt.Printf("committed:         %d instructions, all matching the reference\n", idx)
	fmt.Printf("frontend checker:  %d mismatches, %d retries, %d recoveries, %d parity repairs\n",
		front.Mismatches, front.Retries, front.Recoveries, front.ParityRecovers)
	fmt.Printf("rename checker:    %d mismatches, %d retries, %d recoveries\n",
		ren.Mismatches, ren.Retries, ren.Recoveries)
	fmt.Printf("checkpoints taken: %d (rollbacks needed: %d)\n",
		res.CheckpointsTaken, res.CheckpointRollbacks)

	ok := res.Termination == pipeline.TermHalt &&
		front.Recoveries >= 1 && front.ParityRecovers >= 1 && ren.Recoveries >= 1 &&
		idx == len(golden)
	if ok {
		fmt.Println("\nok: three distinct transient faults — decode, rename, ITR cache —")
		fmt.Println("    all detected and recovered by the regimen; execution is exact.")
	} else {
		fmt.Println("\nWARNING: not every fault was exercised/recovered as expected")
	}
}
