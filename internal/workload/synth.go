package workload

import (
	"fmt"

	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/stats"
)

// Synthesizer layout constants.
const (
	// outerIters bounds the outer loop; runs are instruction-budget
	// limited, so this only needs to exceed any realistic budget's cycle
	// count.
	outerIters = 30000
	// dataBase is the start of the benchmark's data window.
	dataBase = 0x100000
	// runOnceColdMax is the largest cold-trace count emitted as a
	// run-once region; larger cold tails are sliced across outer cycles so
	// rarely-executed code stays distributed through the run (as in real
	// benchmarks) rather than front-loaded.
	runOnceColdMax = 150
	// maxTraceInsts bounds a body trace: at most 11 payload instructions
	// plus its terminator.
	maxTraceInsts = 12
	// maxBranchTraces is the most body traces a 16-bit branch displacement
	// always spans: a slice guard jumps over its slice's bodies, and an
	// inner loop's back branch over its component's.
	maxBranchTraces = (1<<15 - 1) / maxTraceInsts
)

// Reserved registers.
const (
	regZero      = isa.RegID(0)
	regOuter     = isa.RegID(1) // outer-loop countdown
	regInner     = isa.RegID(2) // inner-loop countdown
	regOne       = isa.RegID(3) // constant 1
	regBase      = isa.RegID(4) // data window base
	regOuterInit = isa.RegID(5) // initial outer count (run-once guard)
	regMask      = isa.RegID(6) // address mask constant
	regSlice     = isa.RegID(7) // cold-slice selector countdown
	tempLo       = isa.RegID(8)
	tempHi       = isa.RegID(23)
	scratch0     = isa.RegID(24)
	scratch1     = isa.RegID(25)
)

// Build synthesizes the program for profile p. The returned program contains
// exactly p.StaticTraces observable static traces: coldTraces sizes the cold
// code from the layout's overhead, Build assembles once, and the structural
// walk (StaticTraceCount) confirms the count.
func Build(p Profile) (*program.Program, error) {
	if len(p.Components) == 0 {
		return nil, fmt.Errorf("profile %s: no components", p.Name)
	}
	cold := coldTraces(p)
	if cold < 0 {
		return nil, fmt.Errorf("profile %s: infeasible static trace target %d (overhead alone exceeds it)",
			p.Name, p.StaticTraces)
	}
	prog, err := assemble(p, cold)
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", p.Name, err)
	}
	// The structural walk counts one never-executed trace: the halt trace on
	// the exit path.
	if prog.StaticTraceCount()-1 != p.StaticTraces {
		return nil, fmt.Errorf("profile %s: static trace calibration did not converge", p.Name)
	}
	return prog, nil
}

// coldTraces returns the cold count for which assemble lays out exactly
// p.StaticTraces static traces (the halt trace aside), or a negative count
// when the rest of the layout alone exceeds the target. Each term below is
// one structural part of assemble's layout; every hot and cold body trace is
// one trace, since its 3-12 instructions stay under isa.MaxTraceLen.
func coldTraces(p Profile) int {
	n := p.StaticTraces - p.HotTraces()
	// Init terminators: the constants' trace, then the sixteen temp seeds
	// fill a whole trace so their terminator is a trace of its own, then
	// the memory seeds' trace.
	n -= 4
	// The eight fp seeds fill the memory seeds' trace too, so fp profiles
	// pay one more terminator trace and need one cold trace fewer.
	if p.FP {
		n--
	}
	// One setup trace (the inner-count load) per component.
	n -= len(p.Components)
	// Outer-loop tail: the decrement-and-exit branch and the back jump.
	n -= 2
	// A run-once region is its guard plus cold-1 bodies: exactly cold
	// traces.
	if n <= runOnceColdMax {
		return n
	}
	// A sliced region holds cold-3 traces (slice guards and bodies) and the
	// countdown adds two (the decrement and the reset), one trace short of
	// cold.
	return n + 1
}

// coldSlices picks how many outer cycles the cold tail is spread across.
func coldSlices(cold int) int {
	s := cold / 800
	if s < 2 {
		s = 2
	}
	if s > 12 {
		s = 12
	}
	return s
}

// maxSliceBodies returns the body-trace count of the largest slice in a
// sliced cold region of cold traces, as assemble splits it.
func maxSliceBodies(cold int) int {
	slices := coldSlices(cold)
	bodies := cold - slices - 3
	return (bodies + slices - 1) / slices
}

// gen carries synthesis state.
type gen struct {
	b     *program.Builder
	rng   *stats.RNG
	fp    bool
	tempN int
	fpN   int
}

func (g *gen) nextTemp() isa.RegID {
	g.tempN++
	return tempLo + isa.RegID(g.tempN%int(tempHi-tempLo+1))
}

func (g *gen) randTemp() isa.RegID {
	return tempLo + isa.RegID(g.rng.Intn(int(tempHi-tempLo+1)))
}

func (g *gen) nextFP() isa.RegID {
	g.fpN++
	return isa.RegID(1 + g.fpN%14)
}

func (g *gen) randFP() isa.RegID {
	return isa.RegID(1 + g.rng.Intn(14))
}

// neverTaken emits a trace-terminating branch that is statically never taken
// and whose taken-target is the next instruction (so it introduces no extra
// static trace start). A small fraction are unconditional jumps to the next
// instruction, which are always taken but land on the same start PC. Both
// are emitted resolved: displacement 0, or direct target PC+1.
func (g *gen) neverTaken() {
	never := func(op isa.Opcode, rs1, rs2 isa.RegID) {
		g.b.Emit(isa.Instruction{Op: op, Rs1: rs1, Rs2: rs2})
	}
	switch g.rng.Intn(6) {
	case 0:
		never(isa.OpBeq, regOne, regZero) // 1 == 0: never
	case 1:
		never(isa.OpBne, regOne, regOne) // 1 != 1: never
	case 2:
		never(isa.OpBlt, regOne, regZero) // 1 < 0: never
	case 3:
		never(isa.OpBge, regZero, regOne) // 0 >= 1: never
	case 4:
		never(isa.OpBltu, regOne, regZero) // 1 <u 0: never
	default:
		g.b.Emit(isa.Instruction{Op: isa.OpJ, Target: uint32(g.b.PC() + 1)}) // taken, to the next instruction
	}
}

// payload emits n instructions of benchmark-flavoured straight-line code.
func (g *gen) payload(n int) {
	emitted := 0
	for emitted < n {
		remaining := n - emitted
		emitted += g.payloadInst(remaining)
	}
}

// payloadInst emits one payload operation of at most budget instructions and
// returns how many instructions it emitted.
func (g *gen) payloadInst(budget int) int {
	r := g.rng
	if g.fp && r.Float64() < 0.45 {
		return g.fpInst(budget)
	}
	switch pick := r.Intn(100); {
	case pick < 22: // immediate ALU
		ops := []isa.Opcode{isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpSlti}
		g.b.OpImm(ops[r.Intn(len(ops))], g.nextTemp(), g.randTemp(), int16(r.Intn(4096)))
		return 1
	case pick < 44: // register ALU
		ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt, isa.OpSltu}
		g.b.Op(ops[r.Intn(len(ops))], g.nextTemp(), g.randTemp(), g.randTemp())
		return 1
	case pick < 54: // shift
		ops := []isa.Opcode{isa.OpSll, isa.OpSrl, isa.OpSra}
		g.b.Shift(ops[r.Intn(len(ops))], g.nextTemp(), g.randTemp(), uint8(1+r.Intn(15)))
		return 1
	case pick < 62: // multiply
		g.b.Op(isa.OpMul, g.nextTemp(), g.randTemp(), g.randTemp())
		return 1
	case pick < 64: // divide
		g.b.Op(isa.OpDiv, g.nextTemp(), g.randTemp(), g.randTemp())
		return 1
	case pick < 78: // load, immediate-offset
		ops := []isa.Opcode{isa.OpLw, isa.OpLw, isa.OpLd, isa.OpLh, isa.OpLb}
		g.b.Load(ops[r.Intn(len(ops))], g.nextTemp(), regBase, int16(r.Intn(256)*8))
		return 1
	case pick < 84 && budget >= 3: // load, computed address within window
		g.b.Op(isa.OpAnd, scratch0, g.randTemp(), regMask)
		g.b.Op(isa.OpAdd, scratch0, scratch0, regBase)
		g.b.Load(isa.OpLw, g.nextTemp(), scratch0, 0)
		return 3
	case pick < 94: // store, immediate-offset
		ops := []isa.Opcode{isa.OpSw, isa.OpSd, isa.OpSh, isa.OpSb}
		g.b.Store(ops[r.Intn(len(ops))], g.randTemp(), regBase, int16(r.Intn(256)*8))
		return 1
	case pick < 97: // unaligned-word pair flavour
		g.b.Load(isa.OpLwl, g.nextTemp(), regBase, int16(r.Intn(256)*8))
		return 1
	default: // lui
		g.b.OpImm(isa.OpLui, g.nextTemp(), 0, int16(r.Intn(1<<12)))
		return 1
	}
}

// fpInst emits one floating-point payload operation.
func (g *gen) fpInst(budget int) int {
	r := g.rng
	switch pick := r.Intn(100); {
	case pick < 40:
		ops := []isa.Opcode{isa.OpFAdd, isa.OpFSub, isa.OpFMul}
		g.b.Op(ops[r.Intn(len(ops))], g.nextFP(), g.randFP(), g.randFP())
		return 1
	case pick < 46:
		g.b.Op(isa.OpFDiv, g.nextFP(), g.randFP(), g.randFP())
		return 1
	case pick < 56:
		ops := []isa.Opcode{isa.OpFNeg, isa.OpFMov}
		g.b.Op(ops[r.Intn(len(ops))], g.nextFP(), g.randFP(), 0)
		return 1
	case pick < 62:
		g.b.Op(isa.OpFCmp, g.nextFP(), g.randFP(), g.randFP())
		return 1
	case pick < 68:
		g.b.Op(isa.OpFCvt, g.nextFP(), g.randTemp(), 0)
		return 1
	case pick < 86:
		g.b.Load(isa.OpFLd, g.nextFP(), regBase, int16(r.Intn(256)*8))
		return 1
	default:
		g.b.Store(isa.OpFSd, g.randFP(), regBase, int16(r.Intn(256)*8))
		return 1
	}
}

// trace emits one complete hot/cold body trace: payload plus a never-taken
// terminator.
func (g *gen) trace() {
	g.payload(2 + g.rng.Intn(10)) // 2-11 payload instructions
	g.neverTaken()
}

// assemble lays the program out for the given cold-trace count.
func assemble(p Profile, cold int) (*program.Program, error) {
	g := &gen{b: program.NewBuilder(p.Name), rng: stats.NewRNG(p.Seed), fp: p.FP}
	b := g.b
	// A body trace averages 7.5 instructions (2-11 payload plus its
	// terminator); 8 per trace plus the fixed code covers the image with
	// little slack, so the image never regrows.
	b.Grow(8*(p.HotTraces()+cold) + 64)

	sliced := cold > runOnceColdMax
	slices := 0
	if sliced {
		slices = coldSlices(cold)
	}

	// --- init: constants, seeded temps, seeded memory, seeded fp regs ---
	b.OpImm(isa.OpAddi, regOne, 0, 1)
	b.LoadImm64(regBase, dataBase)
	b.OpImm(isa.OpAddi, regMask, 0, 0x7f8) // keeps computed addresses in a 2 KiB window
	b.OpImm(isa.OpAddi, regOuter, 0, outerIters)
	b.OpImm(isa.OpAddi, regOuterInit, 0, outerIters)
	if sliced {
		b.OpImm(isa.OpAddi, regSlice, 0, int16(slices-1))
	}
	g.neverTaken()
	// Seed the sixteen temp registers with distinct values.
	for i := tempLo; i <= tempHi; i++ {
		b.OpImm(isa.OpAddi, i, 0, int16(0x311+int(i)*0x67))
	}
	g.neverTaken()
	// Seed the data window and, for fp benchmarks, the fp register file.
	for i := 0; i < 8; i++ {
		b.Store(isa.OpSd, tempLo+isa.RegID(i), regBase, int16(i*8))
	}
	if p.FP {
		for i := 0; i < 8; i++ {
			b.Op(isa.OpFCvt, isa.RegID(1+i), tempLo+isa.RegID(i), 0)
		}
	}
	g.neverTaken()

	b.Label("outer_top")

	// --- cold code ---
	switch {
	case cold > 0 && !sliced:
		// Run-once region: executed on the first outer iteration only.
		b.Branch(isa.OpBne, regOuter, regOuterInit, "skip_cold")
		for i := 0; i < cold-1; i++ {
			g.trace()
		}
		b.Label("skip_cold")
	case sliced:
		// One slice of the cold tail executes per outer cycle, selected by
		// the regSlice countdown. Guards cost slices + control traces.
		bodies := cold - slices - 3 // slice guards + countdown control traces
		per := bodies / slices
		extra := bodies % slices
		for s := 0; s < slices; s++ {
			skip := fmt.Sprintf("skipslice_%d", s)
			b.OpImm(isa.OpAddi, scratch1, 0, int16(s))
			b.Branch(isa.OpBne, regSlice, scratch1, skip)
			n := per
			if s < extra {
				n++
			}
			for i := 0; i < n; i++ {
				g.trace()
			}
			b.Label(skip)
		}
	}

	// --- hot components ---
	for ci, c := range p.Components {
		top := fmt.Sprintf("inner_%d", ci)
		iters := c.Iters
		if iters < 1 {
			iters = 1
		}
		b.OpImm(isa.OpAddi, regInner, 0, int16(iters))
		g.neverTaken()
		b.Label(top)
		for t := 0; t < c.Traces-1; t++ {
			g.trace()
		}
		// Final body trace carries the loop bookkeeping.
		g.payload(1 + g.rng.Intn(8))
		b.OpImm(isa.OpAddi, regInner, regInner, -1)
		b.Branch(isa.OpBne, regInner, regZero, top)
	}

	// --- cold-slice countdown ---
	if sliced {
		b.OpImm(isa.OpAddi, regSlice, regSlice, -1)
		b.Branch(isa.OpBge, regSlice, regZero, "skip_reset")
		b.OpImm(isa.OpAddi, regSlice, 0, int16(slices-1))
		b.Label("skip_reset")
	}

	// --- outer-loop tail ---
	b.OpImm(isa.OpAddi, regOuter, regOuter, -1)
	b.Branch(isa.OpBeq, regOuter, regZero, "exit")
	b.Jump("outer_top")
	b.Label("exit")
	b.Halt()

	return b.Build()
}
