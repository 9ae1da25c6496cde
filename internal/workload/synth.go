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
// exactly p.StaticTraces observable static traces; Build iterates cold-code
// padding until the static trace count (computed by structural walk) matches.
func Build(p Profile) (*program.Program, error) {
	if len(p.Components) == 0 {
		return nil, fmt.Errorf("profile %s: no components", p.Name)
	}
	// Initial guess: target minus hot traces minus per-component setup
	// minus rough control overhead.
	cold := p.StaticTraces - p.HotTraces() - len(p.Components) - 8
	if cold < 0 {
		cold = 0
	}
	for attempt := 0; attempt < 12; attempt++ {
		prog, err := assemble(p, cold)
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", p.Name, err)
		}
		// The structural walk counts one never-executed trace: the halt
		// trace on the exit path.
		got := prog.StaticTraceCount() - 1
		if got == p.StaticTraces {
			return prog, nil
		}
		cold += p.StaticTraces - got
		if cold < 0 {
			return nil, fmt.Errorf("profile %s: infeasible static trace target %d (overhead alone exceeds it)",
				p.Name, p.StaticTraces)
		}
	}
	return nil, fmt.Errorf("profile %s: static trace calibration did not converge", p.Name)
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

// gen carries synthesis state.
type gen struct {
	b      *program.Builder
	rng    *stats.RNG
	fp     bool
	labelN int
	tempN  int
	fpN    int
}

func (g *gen) newLabel(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s_%d", prefix, g.labelN)
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
// instruction, which are always taken but land on the same start PC.
func (g *gen) neverTaken() {
	l := g.newLabel("nt")
	switch g.rng.Intn(6) {
	case 0:
		g.b.Branch(isa.OpBeq, regOne, regZero, l) // 1 == 0: never
	case 1:
		g.b.Branch(isa.OpBne, regOne, regOne, l) // 1 != 1: never
	case 2:
		g.b.Branch(isa.OpBlt, regOne, regZero, l) // 1 < 0: never
	case 3:
		g.b.Branch(isa.OpBge, regZero, regOne, l) // 0 >= 1: never
	case 4:
		g.b.Branch(isa.OpBltu, regOne, regZero, l) // 1 <u 0: never
	default:
		g.b.Jump(l) // taken, to the next instruction
	}
	g.b.Label(l)
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
		if bodies < 0 {
			bodies = 0
		}
		per := bodies / slices
		extra := bodies % slices
		for s := 0; s < slices; s++ {
			skip := g.newLabel("skipslice")
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
