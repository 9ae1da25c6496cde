// Package program provides the static program representation executed by the
// simulators: a flat instruction image with an entry point, plus a builder
// with labels and control-flow fixups, and a functional runner.
//
// Programs built here stand in for SPEC2K binaries: the workload package
// synthesizes loop-nest programs whose trace-repetition behaviour is
// calibrated to the paper's characterization (Table 1, Figures 1-4).
package program

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"itr/internal/isa"
)

// Program is an assembled program: a flat image of instructions addressed by
// instruction index (PC counts instructions, not bytes). Programs are
// immutable once constructed; do not modify Insts after the first execution
// or DecodeTable call.
type Program struct {
	Name  string
	Insts []isa.Instruction
	Entry uint64

	// table is the lazily built, atomically published decode memoization.
	table atomic.Pointer[DecodeTable]
}

// DecodeTable returns the program's memoized per-static-instruction decode
// table, building it on first use. Build pre-warms it, so programs from the
// builder or the assembler pay nothing here; directly constructed Programs
// build it lazily. Safe for concurrent use.
func (p *Program) DecodeTable() *DecodeTable {
	if t := p.table.Load(); t != nil {
		return t
	}
	// Two goroutines may race to build; both produce identical tables and
	// CompareAndSwap keeps the first, so every caller sees one winner.
	p.table.CompareAndSwap(nil, newDecodeTable(p.Insts))
	return p.table.Load()
}

// Len returns the number of static instructions in the image.
func (p *Program) Len() int { return len(p.Insts) }

// Fetch returns the instruction at pc. Out-of-image fetches (possible under
// PC faults) return a halt instruction so runaway execution terminates.
func (p *Program) Fetch(pc uint64) isa.Instruction {
	if pc >= uint64(len(p.Insts)) {
		return isa.Instruction{Op: isa.OpHalt}
	}
	return p.Insts[pc]
}

// ErrNoHalt is returned by Build when a program has no reachable halt.
var ErrNoHalt = errors.New("program contains no halt instruction")

// fixup records a control-flow operand to resolve once all labels are known.
type fixup struct {
	at     int    // instruction index to patch
	label  string // target label
	direct bool   // true: 26-bit absolute target; false: 16-bit displacement
}

// Builder assembles a Program incrementally. It is not safe for concurrent
// use.
type Builder struct {
	name   string
	insts  []isa.Instruction
	labels map[string]uint64
	fixups []fixup
	errs   []error
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]uint64)}
}

// Grow reserves capacity for at least n more instructions, so a builder
// that knows roughly how long its program will be does not regrow the image
// as it emits.
func (b *Builder) Grow(n int) { b.insts = slices.Grow(b.insts, n) }

// PC returns the index of the next instruction to be emitted.
func (b *Builder) PC() uint64 { return uint64(len(b.insts)) }

// Label defines name at the current PC. Redefinition is an error reported by
// Build.
func (b *Builder) Label(name string) {
	if _, ok := b.labels[name]; ok {
		b.errs = append(b.errs, fmt.Errorf("label %q redefined", name))
		return
	}
	b.labels[name] = b.PC()
}

// Emit appends a raw instruction.
func (b *Builder) Emit(inst isa.Instruction) {
	b.insts = append(b.insts, inst)
}

// Op emits a register-register ALU operation rd = rs1 <op> rs2.
func (b *Builder) Op(op isa.Opcode, rd, rs1, rs2 isa.RegID) {
	b.Emit(isa.Instruction{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpImm emits an immediate ALU operation rd = rs1 <op> imm.
func (b *Builder) OpImm(op isa.Opcode, rd, rs1 isa.RegID, imm int16) {
	b.Emit(isa.Instruction{Op: op, Rd: rd, Rs1: rs1, Imm: uint16(imm)})
}

// Shift emits a shift rd = rs1 <op> shamt.
func (b *Builder) Shift(op isa.Opcode, rd, rs1 isa.RegID, shamt uint8) {
	b.Emit(isa.Instruction{Op: op, Rd: rd, Rs1: rs1, Shamt: shamt & 0x1f})
}

// Load emits rd = mem[rs1 + imm].
func (b *Builder) Load(op isa.Opcode, rd, base isa.RegID, imm int16) {
	b.Emit(isa.Instruction{Op: op, Rd: rd, Rs1: base, Imm: uint16(imm)})
}

// Store emits mem[base + imm] = rs2.
func (b *Builder) Store(op isa.Opcode, rs2, base isa.RegID, imm int16) {
	b.Emit(isa.Instruction{Op: op, Rs1: base, Rs2: rs2, Imm: uint16(imm)})
}

// Branch emits a conditional branch comparing rs1 and rs2, targeting label.
func (b *Builder) Branch(op isa.Opcode, rs1, rs2 isa.RegID, label string) {
	b.fixups = append(b.fixups, fixup{at: len(b.insts), label: label})
	b.Emit(isa.Instruction{Op: op, Rs1: rs1, Rs2: rs2})
}

// Jump emits an unconditional direct jump to label.
func (b *Builder) Jump(label string) {
	b.fixups = append(b.fixups, fixup{at: len(b.insts), label: label, direct: true})
	b.Emit(isa.Instruction{Op: isa.OpJ})
}

// Call emits a direct call (jal) to label with the return address in rd.
func (b *Builder) Call(label string, rd isa.RegID) {
	b.fixups = append(b.fixups, fixup{at: len(b.insts), label: label, direct: true})
	b.Emit(isa.Instruction{Op: isa.OpJal, Rd: rd})
}

// Return emits a register-indirect jump through rs1.
func (b *Builder) Return(rs1 isa.RegID) {
	b.Emit(isa.Instruction{Op: isa.OpJr, Rs1: rs1})
}

// Halt emits a program-terminating trap.
func (b *Builder) Halt() { b.Emit(isa.Instruction{Op: isa.OpHalt}) }

// LoadImm64 emits a short sequence materializing a 32-bit constant in rd.
func (b *Builder) LoadImm64(rd isa.RegID, v uint32) {
	b.OpImm(isa.OpLui, rd, 0, int16(v>>16))
	if low := uint16(v); low != 0 {
		b.OpImm(isa.OpOri, rd, rd, int16(low))
	}
}

// Build resolves fixups, verifies the program and returns it.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("undefined label %q", f.label)
		}
		if f.direct {
			if target >= 1<<26 {
				return nil, fmt.Errorf("label %q at %d exceeds 26-bit direct range", f.label, target)
			}
			b.insts[f.at].Target = uint32(target)
			continue
		}
		disp := int64(target) - int64(f.at) - 1
		if disp < -(1<<15) || disp >= 1<<15 {
			return nil, fmt.Errorf("branch at %d to %q: displacement %d exceeds 16-bit range", f.at, f.label, disp)
		}
		b.insts[f.at].Imm = uint16(int16(disp))
	}
	p := &Program{Name: b.name, Insts: b.insts}
	if err := Verify(p); err != nil {
		return nil, err
	}
	// Pre-warm the decode memoization: one decode per static instruction
	// here saves two per dynamic instruction in every simulator hot loop.
	p.DecodeTable()
	return p, nil
}

// Verify checks static well-formedness of a program: at least one halt, all
// direct targets inside the image, and all register fields in range.
func Verify(p *Program) error {
	hasHalt := false
	for i, inst := range p.Insts {
		if inst.Op == isa.OpHalt {
			hasHalt = true
		}
		if !inst.Op.Valid() {
			return fmt.Errorf("instruction %d: invalid opcode %d", i, inst.Op)
		}
		if inst.Rd >= isa.NumRegs || inst.Rs1 >= isa.NumRegs || inst.Rs2 >= isa.NumRegs {
			return fmt.Errorf("instruction %d: register out of range", i)
		}
		if (inst.Op == isa.OpJ || inst.Op == isa.OpJal) && uint64(inst.Target) >= uint64(len(p.Insts)) {
			return fmt.Errorf("instruction %d: direct target %d outside image", i, inst.Target)
		}
	}
	if !hasHalt {
		return ErrNoHalt
	}
	return nil
}

// StepFunc observes one functionally executed instruction. Returning false
// stops the run.
type StepFunc func(pc uint64, inst isa.Instruction, o isa.Outcome) bool

// Run executes p functionally from its entry for at most limit dynamic
// instructions (limit <= 0 means unbounded), invoking fn for each. It
// returns the number of instructions executed and whether the program halted
// of its own accord.
func Run(p *Program, limit int64, fn StepFunc) (executed int64, halted bool) {
	st := isa.NewArchState()
	st.PC = p.Entry
	return RunFrom(p, st, limit, fn)
}

// RunFrom is Run starting from an existing architectural state. Execution
// reads decode signals from the program's memoized DecodeTable instead of
// re-decoding each dynamic instruction.
func RunFrom(p *Program, st *isa.ArchState, limit int64, fn StepFunc) (executed int64, halted bool) {
	tab := p.DecodeTable()
	for limit <= 0 || executed < limit {
		pc := st.PC
		o := st.Exec(tab.Signals(pc), pc)
		st.Apply(o)
		executed++
		if fn != nil && !fn(pc, p.Fetch(pc), o) {
			return executed, false
		}
		if o.Halt {
			return executed, true
		}
	}
	return executed, false
}
