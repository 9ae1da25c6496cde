package fault

import (
	"slices"
	"sort"
	"sync"

	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// goldenEntry is one instruction of the fault-free reference execution: the
// PC the reference was at, and the outcome it computed there.
type goldenEntry struct {
	pc  uint64
	out isa.Outcome
}

// GoldenStream is the fault-free commit log computed once per program and
// shared read-only by every run: instead of re-executing a reference
// alongside each faulty run, a cursor walks this stream and compares
// committed outcomes against it.
//
// The stream grows lazily under a mutex, one fixed-size chunk at a time, as
// readers pass its end (a fault that delays work can make a machine commit
// more instructions inside the window than the pilot did). Published chunks
// never move or change, so growth copies nothing and readers hold chunks
// without the lock. Extension is safe at any index: the reference executes
// from the program's decode table, which yields halt signals beyond the
// program image.
type GoldenStream struct {
	tab *program.DecodeTable

	mu     sync.Mutex
	st     isa.ArchState   // execution frontier (guarded by mu)
	chunks [][]goldenEntry // streamChunk entries each (guarded by mu)
}

// streamChunk is the stream's unit of extension: a cursor takes the stream's
// lock once per chunk rather than once per commit.
const streamChunk = 4096

// NewGoldenStream builds an empty stream for prog; entries are computed on
// first use.
func NewGoldenStream(prog *program.Program) *GoldenStream {
	s := &GoldenStream{tab: prog.DecodeTable()}
	s.st.Mem = isa.NewMemory()
	s.st.PC = prog.Entry
	return s
}

// lastStream memoizes the most recent program's golden stream, a pure
// function of the program: a benchmark's campaign, side studies and RunOne
// calls share one stream, and one entry bounds what a multi-benchmark run
// retains.
var lastStream struct {
	sync.Mutex
	prog *program.Program
	s    *GoldenStream
}

// streamFor returns prog's shared golden stream.
func streamFor(prog *program.Program) *GoldenStream {
	lastStream.Lock()
	defer lastStream.Unlock()
	if lastStream.prog != prog {
		lastStream.prog, lastStream.s = prog, NewGoldenStream(prog)
	}
	return lastStream.s
}

// chunk returns chunk i, the entries [i*streamChunk, (i+1)*streamChunk),
// computing the stream through it first.
func (s *GoldenStream) chunk(i int) []goldenEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.chunks) <= i {
		c := make([]goldenEntry, streamChunk)
		for j := range c {
			e := &c[j]
			e.pc = s.st.PC
			s.st.ExecInto(&e.out, s.tab.Signals(e.pc), e.pc)
			s.st.ApplyRef(&e.out)
		}
		s.chunks = append(s.chunks, c)
	}
	return s.chunks[i]
}

// attach installs a cursor as cpu's commit observer, starting at cpu's
// commit count (a resumed machine's prefix matched by construction).
func (s *GoldenStream) attach(cpu *pipeline.CPU) *goldenCursor {
	c := &goldenCursor{s: s, idx: int(cpu.CommittedInsts())}
	cpu.SetCommitObserver(c.observe)
	return c
}

// goldenCursor compares one machine's commit stream against the shared
// golden log: divergence is sticky on the first PC or architectural-effect
// mismatch. A cursor also follows a checkpointing machine's checkpoint
// lifecycle (see checkpoint), so re-executed commits after a rollback are
// compared against the same entries again.
type goldenCursor struct {
	s        *GoldenStream
	cur      []goldenEntry // the chunk holding entries [base, base+streamChunk)
	base     int
	idx      int
	diverged bool

	// The position and verdict at the machine's last checkpoint take.
	ckIdx      int
	ckDiverged bool
}

// at returns entry i, switching chunks when i leaves the current one.
func (c *goldenCursor) at(i int) *goldenEntry {
	if j := i - c.base; uint(j) < uint(len(c.cur)) {
		return &c.cur[j]
	}
	c.base = i - i%streamChunk
	c.cur = c.s.chunk(i / streamChunk)
	return &c.cur[i-c.base]
}

// observe is a pipeline.CommitObserver.
func (c *goldenCursor) observe(pc uint64, o *isa.Outcome) {
	if c.diverged {
		return
	}
	e := c.at(c.idx)
	if pc != e.pc {
		c.diverged = true
		return
	}
	c.idx++
	if !o.SameArchEffect(&e.out) {
		c.diverged = true
	}
}

// checkpoint is a pipeline.CheckpointObserver: a take records the cursor's
// (position, verdict) pair and a rollback restores it. The machine only rolls
// back to a checkpoint it took during the same run, so every rollback follows
// a take.
func (c *goldenCursor) checkpoint(taken bool) {
	if taken {
		c.ckIdx, c.ckDiverged = c.idx, c.diverged
		return
	}
	c.idx, c.diverged = c.ckIdx, c.ckDiverged
}

// replayContext is one study's fast-forward state, shared read-only across
// its worker pool: a fault-free pilot's snapshots (ascending in time) and the
// golden stream every run's cursor reads. A run resumes from the latest
// snapshot before its fault point, or starts cold when none precedes it.
type replayContext struct {
	snaps  []*pipeline.Snapshot
	stream *GoldenStream
}

// Snapshot keys: the quantity a study's fault points are positions in.
func byDecode(s *pipeline.Snapshot) int64 { return s.DecodeEvents }
func byCycle(s *pipeline.Snapshot) int64  { return s.Cycle }

// pilotSeries runs a fault-free pilot through the window, capturing a
// resumable snapshot every interval decode events (none when interval is
// zero). It serves campaigns whose fault points are drawn from the pilot's
// own decode-event space, so cannot be known while it runs.
func pilotSeries(cpu *pipeline.CPU, window, interval int64) (snaps []*pipeline.Snapshot) {
	if interval <= 0 {
		cpu.Run(window)
		return nil
	}
	for next := interval; ; next = cpu.DecodeEvents() + interval {
		res := cpu.RunUntilDecode(window-cpu.CycleCount(), next)
		if res.Termination != pipeline.TermBudget || cpu.CycleCount() >= window {
			return snaps // machine terminated or window exhausted
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
func pilotAt(cpu *pipeline.CPU, window int64, points []int64, cycles bool) (snaps []*pipeline.Snapshot) {
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

// pilotStream returns prog's shared golden stream, computed through the
// pilot's commits so workers rarely contend on extending it.
func pilotStream(prog *program.Program, pilot *pipeline.CPU) *GoldenStream {
	s := streamFor(prog)
	if n := pilot.CommittedInsts(); n > 0 {
		s.chunk(int(n-1) / streamChunk)
	}
	return s
}

// prune keeps only the snapshots some decode point resumes from, so a
// periodic series' memory is not held for the whole campaign. Pruning never
// changes a lookup: each point's latest preceding snapshot is kept.
func prune(snaps []*pipeline.Snapshot, points []int64) []*pipeline.Snapshot {
	rc, used := replayContext{snaps: snaps}, make(map[*pipeline.Snapshot]bool)
	for _, p := range points {
		used[rc.before(byDecode, p)] = true
	}
	return slices.DeleteFunc(snaps, func(s *pipeline.Snapshot) bool { return !used[s] })
}

// before returns the latest snapshot whose key is strictly below v (for
// decode events: the injected event has not happened in it yet), or nil when
// the run must start cold.
func (rc *replayContext) before(key func(*pipeline.Snapshot) int64, v int64) *pipeline.Snapshot {
	if i := sort.Search(len(rc.snaps), func(i int) bool { return key(rc.snaps[i]) >= v }); i > 0 {
		return rc.snaps[i-1]
	}
	return nil
}
