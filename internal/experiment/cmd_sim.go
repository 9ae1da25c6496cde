package experiment

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"itr/internal/asm"
	"itr/internal/detect"
	"itr/internal/fault"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/stats"
	"itr/internal/workload"
)

func bindSim(fs *flag.FlagSet, s *Spec) {
	fs.StringVar(&s.Bench, "bench", s.Bench, "benchmark to run")
	fs.StringVar(&s.Sim.Asm, "asm", s.Sim.Asm, "run this assembly source file instead of a benchmark")
	fs.StringVar(&s.Sim.Profile, "profile", s.Sim.Profile, "run a custom workload profile (JSON) instead of a benchmark")
	fs.Int64Var(&s.Sim.Cycles, "cycles", s.Sim.Cycles, "cycle budget")
	fs.BoolVar(&s.Sim.PrintSignals, "print-signals", s.Sim.PrintSignals, "print the Table 2 decode-signal specification")
	fs.BoolVar(&s.Sim.NoITR, "no-itr", s.Sim.NoITR, "disable the ITR checker")
	fs.StringVar(&s.Detector, "detector", s.Detector,
		fmt.Sprintf("detection backend: %s (default itr)", strings.Join(detect.Names(), ", ")))
	fs.Int64Var(&s.Sim.Inject, "inject", s.Sim.Inject, "inject a fault at this decode event (0 = none)")
	fs.IntVar(&s.Sim.Bit, "bit", s.Sim.Bit, "signal bit to flip when injecting (0-63)")
	fs.IntVar(&s.Workers, "workers", s.Workers, "bound Go runtime parallelism (0 = all cores); sim runs one pipeline, so this only caps GC/runtime threads")
}

// runSim runs one benchmark on the ITR-protected cycle-level core and
// reports pipeline and checker statistics. It can also print the Table 2
// decode-signal specification and demonstrate a single fault injection end
// to end.
func runSim(e *Engine) error {
	s := e.Spec
	w := e.out
	if s.Workers > 0 {
		runtime.GOMAXPROCS(s.Workers)
	}

	if s.Sim.PrintSignals {
		return e.stage("signals", func() error {
			printTable2(e)
			return nil
		})
	}

	return e.stage("run", func() error {
		var prog *program.Program
		var name string
		if s.Sim.Profile != "" {
			f, err := os.Open(s.Sim.Profile)
			if err != nil {
				return err
			}
			prof, err := workload.ParseProfile(f)
			f.Close()
			if err != nil {
				return err
			}
			prog, err = workload.Build(prof)
			if err != nil {
				return err
			}
			name = prof.Name
		} else if s.Sim.Asm != "" {
			src, err := os.ReadFile(s.Sim.Asm)
			if err != nil {
				return err
			}
			prog, err = asm.Assemble(s.Sim.Asm, string(src))
			if err != nil {
				return err
			}
			name = s.Sim.Asm
		} else {
			prof, err := workload.ByName(s.Bench)
			if err != nil {
				return err
			}
			prog, err = workload.CachedProgram(prof)
			if err != nil {
				return err
			}
			name = prof.Name
		}

		if !detect.Known(s.Detector) {
			return fmt.Errorf("unknown detector backend %q (have %s)", s.Detector, strings.Join(detect.Names(), ", "))
		}
		cfg := pipeline.DefaultConfig()
		cfg.ITREnabled = !s.Sim.NoITR
		cfg.Detector = s.Detector
		cfg.Probe = e.probe
		// The sim machine runs on the stage goroutine; its pipeline events
		// (snapshots, rollbacks, detections) share the engine's timeline.
		cfg.Trace = e.tracer.Ring("sim")
		cpu, err := pipeline.New(prog, cfg)
		if err != nil {
			return err
		}
		if s.Sim.Inject > 0 {
			inj := fault.Injection{DecodeIndex: s.Sim.Inject, Bit: s.Sim.Bit}
			fmt.Fprintf(w, "injecting: decode event %d, bit %d (%s field)\n", inj.DecodeIndex, inj.Bit, inj.Field())
			done := false
			cpu.SetFaultHook(func(i int64, pc uint64, wrongPath bool, d isa.DecodeSignals) isa.DecodeSignals {
				if !done && i == inj.DecodeIndex {
					done = true
					fmt.Fprintf(w, "  corrupted %s at pc=%d\n", d, pc)
					return d.FlipBit(inj.Bit)
				}
				return d
			})
		}

		res := cpu.Run(s.Sim.Cycles)
		fmt.Fprintf(w, "program:        %s (%d static instructions)\n", name, prog.Len())
		fmt.Fprintf(w, "termination:    %v\n", res.Termination)
		fmt.Fprintf(w, "cycles:         %d\n", res.Cycles)
		fmt.Fprintf(w, "committed:      %d (IPC %.2f)\n", res.Committed, res.IPC())
		fmt.Fprintf(w, "decode events:  %d\n", res.DecodeEvents)
		fmt.Fprintf(w, "mispredicts:    %d\n", res.Mispredicts)
		fmt.Fprintf(w, "spc violations: %d\n", res.SpcFired)
		fmt.Fprintf(w, "ITR flushes:    %d\n", res.ITRFlushes)
		if c := cpu.Checker(); c != nil {
			st := c.Stats()
			fmt.Fprintf(w, "ITR checker:    %d traces dispatched, %d hits, %d misses, %d writes\n",
				st.Dispatched, st.Hits, st.Misses, st.Writes)
			fmt.Fprintf(w, "                %d mismatches, %d retries, %d recoveries, %d machine checks\n",
				st.Mismatches, st.Retries, st.Recoveries, st.MachineChecks)
		} else if d := cpu.Detector(); d != nil {
			st := d.Base().Stats()
			fmt.Fprintf(w, "%s detector: %d traces dispatched, %d insts replayed, %d chunks checked\n",
				detect.Canonical(s.Detector), st.Dispatched, st.ReplayedInsts, st.ChunksChecked)
			fmt.Fprintf(w, "                %d mismatches, %d retries, %d recoveries, %d machine checks\n",
				st.Mismatches, st.Retries, st.Recoveries, st.MachineChecks)
		}
		return nil
	})
}

func printTable2(e *Engine) {
	w := e.out
	fmt.Fprintln(w, "Table 2. List of decode signals (64 bits total).")
	t := stats.NewTable("field", "description", "width")
	t.AddRow("opcode", "instruction opcode", 8)
	t.AddRow("flags", "decoded control flags", 12)
	t.AddRow("shamt", "shift amount", 5)
	t.AddRow("rsrc1", "source register operand", 5)
	t.AddRow("rsrc2", "source register operand", 5)
	t.AddRow("rdst", "destination register operand", 5)
	t.AddRow("lat", "execution latency", 2)
	t.AddRow("imm", "immediate", 16)
	t.AddRow("num_rsrc", "number of source operands", 2)
	t.AddRow("num_rdst", "number of destination operands", 1)
	t.AddRow("mem_size", "size of memory word", 3)
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "\nControl flags:", flagList())
	fmt.Fprintln(w, "\nBit layout of the packed signal word:")
	prev := ""
	start := 0
	for pos := 0; pos <= isa.SignalBits; pos++ {
		f := ""
		if pos < isa.SignalBits {
			f = isa.SignalField(pos)
		}
		if f != prev {
			if prev != "" {
				fmt.Fprintf(w, "  bits %2d-%2d: %s\n", start, pos-1, prev)
			}
			prev, start = f, pos
		}
	}
}

func flagList() string {
	s := ""
	for i := 0; i < 12; i++ {
		if i > 0 {
			s += ", "
		}
		s += isa.FlagName(i)
	}
	return s
}
