package fault

import (
	"slices"
	"sort"

	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// goldenCursor checks one machine's commits against a fault-free shadow: a
// functional execution of the program that starts from the committed
// architectural state of the snapshot the run resumed from (registers and PC
// copied, memory shared copy-on-write) and executes each instruction as the
// machine commits it. Divergence is sticky on the first PC or
// architectural-effect mismatch, and the shadow stops executing once it is
// set. A cursor also follows a checkpointing machine's checkpoint lifecycle
// (see checkpoint), so re-executed commits after a rollback are compared
// against the same shadow state again.
type goldenCursor struct {
	tab      *program.DecodeTable
	st       *isa.ArchState
	mem      *isa.Memory // st.Mem
	ref      isa.Outcome // the shadow's outcome for the commit being checked
	diverged bool

	// The shadow's state and the verdict at the machine's last checkpoint
	// take.
	ck         isa.Checkpoint
	ckDiverged bool
}

// attach installs a cursor as cpu's commit observer, its shadow starting at
// the committed architectural state of snap, the snapshot cpu was just
// restored to.
func (a *arena) attach(cpu *pipeline.CPU, snap *pipeline.Snapshot) *goldenCursor {
	st, mem := snap.ArchFork()
	c := &goldenCursor{tab: a.prog.DecodeTable(), st: st, mem: mem}
	cpu.SetCommitObserver(c.observe)
	return c
}

// observe is a pipeline.CommitObserver.
func (c *goldenCursor) observe(pc uint64, o *isa.Outcome) {
	if c.diverged {
		return
	}
	if pc != c.st.PC {
		c.diverged = true
		return
	}
	// The kernel applies the shadow's outcome before the compare. After a
	// mismatch the shadow's state is never read again: divergence is sticky,
	// and a checkpoint taken after it records the verdict with the state.
	c.st.ExecClean(&c.ref, c.tab.Word(pc), pc)
	c.diverged = !o.SameArchEffect(&c.ref)
}

// checkpoint is a pipeline.CheckpointObserver: a take checkpoints the
// shadow's state and records the verdict, and a rollback restores them. The
// machine only rolls back to a checkpoint it took during the same run, so
// every rollback follows a take.
func (c *goldenCursor) checkpoint(taken bool) {
	if taken {
		c.ck, c.ckDiverged = c.st.Checkpoint(c.mem), c.diverged
		return
	}
	c.st.Rollback(c.mem, &c.ck)
	c.diverged = c.ckDiverged
}

// converged proves the machine's committed architectural state is identical
// to the shadow's: registers, PC and — via the copy-on-write generation
// tags, so pages both sides still share with the start snapshot compare by
// pointer — the full memory image. A shadow that stopped at a divergence
// proves nothing.
func (c *goldenCursor) converged(cpu *pipeline.CPU) bool {
	m := cpu.Committed()
	mem, ok := m.Mem.(*isa.Memory)
	return ok && !c.diverged && m.R == c.st.R && m.F == c.st.F && m.PC == c.st.PC && c.mem.Equal(mem)
}

// snapSeries is a fault-free pilot's snapshots, ascending in time, shared
// read-only across a study's worker pool. A run resumes from the latest
// snapshot before its fault point, or starts cold when none precedes it.
type snapSeries []*pipeline.Snapshot

// Snapshot keys: the quantity a study's fault points are positions in.
func byDecode(s *pipeline.Snapshot) int64 { return s.DecodeEvents }
func byCycle(s *pipeline.Snapshot) int64  { return s.Cycle }

// pilotSeries runs a fault-free pilot through the window, capturing a
// resumable snapshot every interval decode events (none when interval is
// zero). It serves campaigns whose fault points are drawn from the pilot's
// own decode-event space, so cannot be known while it runs: from the decode
// events below half the window's total (see sample).
//
// Capturing stops once no later snapshot can precede a fault point: at D
// decode events and cycle t, the window's total is at most
// D + (window-t)·MaxDecodesPerCycle, so once D is at least
// (window-t)·MaxDecodesPerCycle every point lies below D. The pilot still
// runs to the window's end, so the decode-event space is unchanged.
func pilotSeries(cpu *pipeline.CPU, window, interval int64) (snaps snapSeries) {
	if interval <= 0 {
		cpu.Run(window)
		return nil
	}
	for next := interval; ; next = cpu.DecodeEvents() + interval {
		res := cpu.RunUntilDecode(window-cpu.CycleCount(), next)
		if res.Termination != pipeline.TermBudget || cpu.CycleCount() >= window {
			return snaps // machine terminated or window exhausted
		}
		if cpu.DecodeEvents() >= (window-cpu.CycleCount())*cpu.MaxDecodesPerCycle() {
			cpu.Run(window - cpu.CycleCount())
			return snaps
		}
		snaps = append(snaps, cpu.Snapshot())
	}
}

// pilotAt runs a fault-free pilot and captures one snapshot just before each
// fault point, for studies that draw their points up front: for cycle points
// at cycle p-1, for decode points preFaultMargin decode events before p,
// which one cycle cannot overshoot. A point the pilot already passed reuses
// the previous capture. The pilot stops at its last capture; stepping in
// chunks is trajectory-identical, so running it on to the window's end
// yields exactly a straight cpu.Run(window).
func pilotAt(cpu *pipeline.CPU, window int64, points []int64, cycles bool) (snaps snapSeries) {
	sorted := slices.Clone(points)
	slices.Sort(sorted)
	for _, p := range sorted {
		budget, stop := window-cpu.CycleCount(), p-preFaultMargin
		if cycles {
			budget, stop = min(budget, p-1-cpu.CycleCount()), -1
		}
		if budget <= 0 || !cycles && stop <= cpu.DecodeEvents() {
			continue
		}
		if res := cpu.RunUntilDecode(budget, stop); res.Termination != pipeline.TermBudget || cpu.CycleCount() >= window {
			break
		}
		snaps = append(snaps, cpu.Snapshot())
	}
	return snaps
}

// prune keeps only the snapshots some decode point resumes from, so a
// periodic series' memory is not held for the whole campaign. Pruning never
// changes a lookup: each point's latest preceding snapshot is kept.
func prune(snaps snapSeries, points []int64) snapSeries {
	used := make(map[*pipeline.Snapshot]bool)
	for _, p := range points {
		used[snaps.before(byDecode, p)] = true
	}
	return slices.DeleteFunc(snaps, func(s *pipeline.Snapshot) bool { return !used[s] })
}

// before returns the latest snapshot whose key is strictly below v (for
// decode events: the injected event has not happened in it yet), or nil when
// the run must start cold.
func (s snapSeries) before(key func(*pipeline.Snapshot) int64, v int64) *pipeline.Snapshot {
	if i := sort.Search(len(s), func(i int) bool { return key(s[i]) >= v }); i > 0 {
		return s[i-1]
	}
	return nil
}
