package fault

import (
	"slices"
	"sort"
	"sync"

	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
)

// goldenEntry is one instruction of the fault-free reference execution,
// packed to 32 bytes: exactly the isa.Outcome fields SameArchEffect and
// ApplyRef read. The instruction's own PC is not stored — it is the previous
// entry's nextPC, or the program entry at index 0, and a cursor tracks it —
// and a register write and a store share word, because a store never writes
// a register (isa.ArchState.ExecInto).
type goldenEntry struct {
	nextPC uint64
	word   uint64 // the register write's value, or the store's data
	addr   uint64 // the store's address
	flags  uint8  // entryRegWrite | entryRegFP | entryMemWrite | entryHalt
	reg    isa.RegID
	size   uint8 // the store's width in bytes
}

const (
	entryRegWrite = 1 << iota
	entryRegFP
	entryMemWrite
	entryHalt
)

// packEntry packs a fault-free outcome, which performs at most one of a
// register write and a store.
func packEntry(o *isa.Outcome) goldenEntry {
	e := goldenEntry{nextPC: o.NextPC, reg: o.Reg}
	if o.RegWrite {
		e.flags |= entryRegWrite
		e.word = o.Value
	}
	if o.RegFP {
		e.flags |= entryRegFP
	}
	if o.MemWrite {
		e.flags |= entryMemWrite
		e.word, e.addr, e.size = o.MemWData, o.MemAddr, o.MemWSize
	}
	if o.Halt {
		e.flags |= entryHalt
	}
	return e
}

// matches is isa.Outcome.SameArchEffect with e as the reference outcome.
func (e *goldenEntry) matches(o *isa.Outcome) bool {
	if o.NextPC != e.nextPC || o.Halt != (e.flags&entryHalt != 0) {
		return false
	}
	if o.RegWrite != (e.flags&entryRegWrite != 0) || o.MemWrite != (e.flags&entryMemWrite != 0) {
		return false
	}
	if o.RegWrite && (o.Reg != e.reg || o.RegFP != (e.flags&entryRegFP != 0) || o.Value != e.word) {
		return false
	}
	if o.MemWrite && (o.MemAddr != e.addr || o.MemWData != e.word || o.MemWSize != e.size) {
		return false
	}
	return true
}

// apply is isa.ArchState.ApplyRef of the packed outcome.
func (e *goldenEntry) apply(st *isa.ArchState) {
	if e.flags&entryRegWrite != 0 {
		if e.flags&entryRegFP != 0 {
			st.F[e.reg&0x1f] = e.word
		} else if e.reg&0x1f != 0 {
			st.R[e.reg&0x1f] = e.word
		}
	}
	if e.flags&entryMemWrite != 0 {
		st.Mem.Store(e.addr, e.size, e.word)
	}
	st.PC = e.nextPC
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
	tab   *program.DecodeTable
	entry uint64 // the PC of entry 0

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
	s := &GoldenStream{tab: prog.DecodeTable(), entry: prog.Entry}
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

// streamThrough returns prog's shared golden stream, computed through its
// first n entries (a pilot's commit count) so workers rarely contend on
// extending it.
func streamThrough(prog *program.Program, n int64) *GoldenStream {
	s := streamFor(prog)
	if n > 0 {
		s.chunk(int(n-1) / streamChunk)
	}
	return s
}

// chunk returns chunk i, the entries [i*streamChunk, (i+1)*streamChunk),
// computing the stream through it first.
func (s *GoldenStream) chunk(i int) []goldenEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var o isa.Outcome
	for len(s.chunks) <= i {
		c := make([]goldenEntry, streamChunk)
		for j := range c {
			pc := s.st.PC
			s.st.ExecInto(&o, s.tab.Signals(pc), pc)
			s.st.ApplyRef(&o)
			c[j] = packEntry(&o)
		}
		s.chunks = append(s.chunks, c)
	}
	return s.chunks[i]
}

// cursor returns a cursor positioned at entry idx.
func (s *GoldenStream) cursor(idx int) *goldenCursor {
	c := &goldenCursor{s: s, idx: idx, pc: s.entry}
	if idx > 0 {
		c.pc = c.at(idx - 1).nextPC
	}
	return c
}

// attach installs a cursor as cpu's commit observer, starting at cpu's
// commit count (a resumed machine's prefix matched by construction).
func (s *GoldenStream) attach(cpu *pipeline.CPU) *goldenCursor {
	c := s.cursor(int(cpu.CommittedInsts()))
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
	pc       uint64 // the PC entry idx executes at
	diverged bool

	// The position, expected PC and verdict at the machine's last
	// checkpoint take.
	ckIdx      int
	ckPC       uint64
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
	if pc != c.pc {
		c.diverged = true
		return
	}
	e := c.at(c.idx)
	c.idx++
	c.pc = e.nextPC
	if !e.matches(o) {
		c.diverged = true
	}
}

// checkpoint is a pipeline.CheckpointObserver: a take records the cursor's
// (position, expected PC, verdict) and a rollback restores them. The machine
// only rolls back to a checkpoint it took during the same run, so every
// rollback follows a take.
func (c *goldenCursor) checkpoint(taken bool) {
	if taken {
		c.ckIdx, c.ckPC, c.ckDiverged = c.idx, c.pc, c.diverged
		return
	}
	c.idx, c.pc, c.diverged = c.ckIdx, c.ckPC, c.ckDiverged
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
