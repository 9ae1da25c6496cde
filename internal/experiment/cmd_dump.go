package experiment

import (
	"flag"
	"fmt"
	"sort"

	"itr/internal/fault"
	"itr/internal/stats"
	"itr/internal/trace"
	"itr/internal/workload"
)

func bindDump(fs *flag.FlagSet, s *Spec) {
	fs.StringVar(&s.Bench, "bench", s.Bench, "benchmark to inspect")
	fs.BoolVar(&s.Dump.Dis, "dis", s.Dump.Dis, "disassemble instructions")
	fs.Uint64Var(&s.Dump.From, "from", s.Dump.From, "first PC to disassemble")
	fs.IntVar(&s.Dump.N, "n", s.Dump.N, "instructions to disassemble")
	fs.BoolVar(&s.Dump.Traces, "traces", s.Dump.Traces, "print the static trace table (dynamic, with signatures)")
	fs.Int64Var(&s.Budget, "budget", s.Budget, "instruction budget for dynamic trace discovery")
}

// runDump inspects a synthesized benchmark program: disassembly, static
// trace boundaries with fault-free signatures, image statistics and the
// instruction mix. It is the debugging companion to the simulators — what
// objdump is to a binary.
func runDump(e *Engine) error {
	s := e.Spec
	w := e.out
	return e.stage("inspect", func() error {
		prof, err := workload.ByName(s.Bench)
		if err != nil {
			return err
		}
		prog, err := workload.CachedProgram(prof)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "program %s: %d static instructions, entry %d\n", prog.Name, prog.Len(), prog.Entry)
		fmt.Fprintf(w, "profile: %d static traces (Table 1), %d components, fp=%v\n",
			prof.StaticTraces, len(prof.Components), prof.FP)

		// Instruction mix.
		mix := stats.NewCounter()
		branches := 0
		for _, inst := range prog.Insts {
			mix.Inc(inst.Op.String(), 1)
			if inst.Op.IsBranch() {
				branches++
			}
		}
		fmt.Fprintf(w, "branch density: %.1f%% (%d branching instructions)\n",
			100*float64(branches)/float64(prog.Len()), branches)
		fmt.Fprintln(w, "\ninstruction mix (top 12):")
		names := mix.Names()
		sort.Slice(names, func(i, j int) bool { return mix.Get(names[i]) > mix.Get(names[j]) })
		for i, name := range names {
			if i >= 12 {
				break
			}
			fmt.Fprintf(w, "  %-6s %6d (%.1f%%)\n", name, mix.Get(name), mix.Pct(name))
		}

		if s.Dump.Dis {
			fmt.Fprintf(w, "\ndisassembly from %d:\n", s.Dump.From)
			end := s.Dump.From + uint64(s.Dump.N)
			if end > uint64(prog.Len()) {
				end = uint64(prog.Len())
			}
			tab := prog.DecodeTable()
			var former trace.Former
			for pc := s.Dump.From; pc < end; pc++ {
				marker := "  "
				if former.StepTerm(pc, tab.Word(pc)) {
					former.Take()
					marker = " <" // trace boundary
				}
				fmt.Fprintf(w, "%6d: %-28s%s\n", pc, prog.Fetch(pc).String(), marker)
			}
		}

		if s.Dump.Traces {
			fmt.Fprintf(w, "\nstatic traces observed in %d instructions:\n", s.Budget)
			oracle := fault.NewSigOracle(prog)
			type row struct {
				start uint64
				count int64
				insts int64
			}
			counts := make(map[uint64]*row)
			trace.Stream(prog, s.Budget, func(ev trace.Event) bool {
				r := counts[ev.StartPC]
				if r == nil {
					r = &row{start: ev.StartPC}
					counts[ev.StartPC] = r
				}
				r.count++
				r.insts += int64(ev.Len)
				return true
			})
			rows := make([]*row, 0, len(counts))
			for _, r := range counts {
				rows = append(rows, r)
			}
			// Rows come out of a map, so ties in instruction count are
			// broken by start PC to keep the table deterministic.
			sort.Slice(rows, func(i, j int) bool {
				if rows[i].insts != rows[j].insts {
					return rows[i].insts > rows[j].insts
				}
				return rows[i].start < rows[j].start
			})
			fmt.Fprintf(w, "%8s %12s %14s %18s\n", "startPC", "instances", "dyn insts", "signature")
			for i, r := range rows {
				if i >= 25 {
					fmt.Fprintf(w, "  ... and %d more\n", len(rows)-25)
					break
				}
				fmt.Fprintf(w, "%8d %12d %14d %#18x\n", r.start, r.count, r.insts, oracle.TrueSig(r.start))
			}
		}
		return nil
	})
}
