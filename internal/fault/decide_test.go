package fault

import (
	"fmt"
	"reflect"
	"testing"

	"itr/internal/asm"
	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/par"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/workload"
)

// The identity tables (this one for campaigns, TestSideStudiesDecidedMatchExact
// for the side studies) hold the engine to its promise that no knob changes
// an outcome. Each computes one exact reference per everything that fixes
// the sample: a cold run that simulates every window whole, 4 workers wide.
// Each knob setting is then one run compared with that reference per
// injection.

// jitterSeed seeds the table's jittered probe schedules (see
// CampaignConfig.jitter).
const jitterSeed = 0x9e3779b9

// probes is how a table run decides its runs: on a jittered schedule or the
// production grid with early exits, or exact, each window whole.
type probes int

const (
	jittered probes = iota
	fixed
	exact
)

// knob is one table run's setting of everything that must not change its
// outcomes.
type knob struct {
	workers  int
	interval int64 // Config.SnapshotInterval
	probes   probes
}

// refKnob is the setting of every exact reference.
var refKnob = knob{workers: 4, interval: -1, probes: exact}

// name is the case name of kn's run of the sample that kind and seed name.
func (kn knob) name(kind string, seed uint64) string {
	s := fmt.Sprintf("%s/w%d/seed %#x/interval %d", kind, kn.workers, seed, kn.interval)
	switch kn.probes {
	case fixed:
		s += "/fixed"
	case exact:
		s += "/exact"
	}
	return s
}

// apply sets kn on cc.
func (kn knob) apply(cc *CampaignConfig) {
	cc.Workers = kn.workers
	cc.Experiment.SnapshotInterval = kn.interval
	cc.Experiment.Exact = kn.probes == exact
	if kn.probes == jittered {
		cc.jitter = jitterSeed
	}
}

// tableProgram returns the table program called name: the loop nest
// (testProgram) or a synthetic benchmark.
func tableProgram(t *testing.T, name string) *program.Program {
	t.Helper()
	if name == "loop" {
		return testProgram(t)
	}
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.CachedProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// campaignKey is everything that fixes a campaign's sample and each of its
// injections' Detail.
type campaignKey struct {
	prog    string
	backend string
	seed    uint64
	faults  int
	window  int64
	ckpt    bool
}

// run runs k's campaign on p, the program k names, under kn. An exact run
// that saves cycles is an error.
func (k campaignKey) run(p *program.Program, kn knob) (CampaignResult, error) {
	cc := DefaultCampaignConfig()
	cc.Faults, cc.Seed = k.faults, k.seed
	cc.Experiment = quickConfig()
	cc.Experiment.WindowCycles = k.window
	cc.Experiment.Pipeline.Detector = k.backend
	cc.Experiment.Checkpoint = k.ckpt
	kn.apply(&cc)
	res, err := RunCampaign(k.prog, p, cc)
	if b := res.Budget; err == nil && kn.probes == exact && (b.CyclesSaved != 0 || b.DecidedEarly != 0) {
		err = fmt.Errorf("exact path saved %d cycles, decided %d runs early", b.CyclesSaved, b.DecidedEarly)
	}
	return res, err
}

var campaignRefs par.Memo[campaignKey, CampaignResult]

// reference returns k's exact reference on p, computing it on first use.
func (k campaignKey) reference(t *testing.T, p *program.Program) CampaignResult {
	t.Helper()
	ref, err := campaignRefs.Do(k, func() (CampaignResult, error) { return k.run(p, refKnob) })
	if err != nil {
		t.Fatalf("exact reference: %v", err)
	}
	return ref
}

// tally is what a campaign result adds up from its Details, without the
// work accounting a knob may change.
func tally(r CampaignResult) CampaignResult {
	r.Benchmark, r.Budget, r.Details = "", Budget{}, nil
	r.Snapshots, r.SnapshotPages, r.SnapshotOwnedPages = 0, 0, 0
	return r
}

// TestDecidedClassificationMatchesExact is the campaign identity table, the
// decided-outcome and snapshot layers' correctness bar: on the loop nest,
// for every detector backend, each injection's Detail (its class and every
// observe- and verify-run fact) and the result's tallies must equal the
// exact reference's at every knob setting. The settings cover worker widths
// 1 and 4, snapshot intervals -1 (cold), 0 (the default), 512 and 2000,
// decided runs probed on the production grid and on jittered schedules,
// exact runs at other widths and intervals, and the verify run's
// checkpointing. Every case is a second run of its reference's campaign,
// so the table also checks that a campaign run twice agrees with itself.
// Exact runs, references included, save no cycles, and each run's snapshot
// footprint is consistent with its interval.
func TestDecidedClassificationMatchesExact(t *testing.T) {
	t.Parallel()
	type tcase struct {
		key  campaignKey
		knob knob
	}
	var cases []tcase
	add := func(key campaignKey, knobs ...knob) {
		for _, kn := range knobs {
			cases = append(cases, tcase{key, kn})
		}
	}
	for _, backend := range []string{"itr", "reptfd", "dme"} {
		for _, seed := range []uint64{0x17b, 0xdead} {
			key := campaignKey{"loop", backend, seed, 50, 20_000, false}
			for _, workers := range []int{1, 4} {
				for _, interval := range []int64{-1, 0} {
					add(key, knob{workers, interval, jittered})
				}
			}
			add(key, knob{4, 0, fixed})
		}
		add(campaignKey{"loop", backend, 0x17b, 50, 20_000, false}, knob{1, 512, fixed}, knob{1, 0, exact})
	}
	itr := campaignKey{"loop", "itr", 0x17b, 50, 20_000, false}
	add(itr, knob{4, 2000, exact}, knob{4, 2000, fixed})
	ckpt := itr
	ckpt.ckpt = true
	add(ckpt, knob{4, 2000, exact}, knob{4, 2000, fixed}, knob{1, 512, jittered})

	for _, c := range cases {
		kind := c.key.backend
		if c.key.ckpt {
			kind += "+checkpoint"
		}
		t.Run(c.knob.name(kind, c.key.seed), func(t *testing.T) {
			t.Parallel()
			p := tableProgram(t, c.key.prog)
			want := c.key.reference(t, p)
			got, err := c.key.run(p, c.knob)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Details) != len(want.Details) {
				t.Fatalf("%d injections, exact %d", len(got.Details), len(want.Details))
			}
			for i := range want.Details {
				if got.Details[i] != want.Details[i] {
					t.Errorf("injection %d\n got   %+v\n exact %+v", i, got.Details[i], want.Details[i])
				}
			}
			if g, w := tally(got), tally(want); !reflect.DeepEqual(g, w) {
				t.Errorf("tallies differ:\n got   %+v\n exact %+v", g, w)
			}
			checkFootprint(t, got, c.knob.interval)
		})
	}
}

// checkFootprint checks a campaign's snapshot accounting against the
// interval it ran at: a cold campaign retains nothing, and a snapshot series
// holds pages, references at least as many as it distinctly holds, and
// shares its predecessors' unchanged pages when it has more than one
// snapshot.
func checkFootprint(t *testing.T, r CampaignResult, interval int64) {
	t.Helper()
	switch {
	case interval < 0:
		if r.Snapshots != 0 || r.SnapshotPages != 0 || r.SnapshotOwnedPages != 0 {
			t.Errorf("cold path reported snapshots: %d (%d pages, %d distinct)", r.Snapshots, r.SnapshotPages, r.SnapshotOwnedPages)
		}
	case r.Snapshots == 0 || r.SnapshotOwnedPages == 0:
		t.Errorf("fast path retained no snapshots: %d (%d distinct pages)", r.Snapshots, r.SnapshotOwnedPages)
	case r.SnapshotOwnedPages > r.SnapshotPages:
		t.Errorf("snapshot footprint inconsistent: %d referenced, %d distinct", r.SnapshotPages, r.SnapshotOwnedPages)
	case r.Snapshots > 1 && r.SnapshotOwnedPages == r.SnapshotPages:
		t.Errorf("%d snapshots share no pages (%d referenced, %d distinct)", r.Snapshots, r.SnapshotPages, r.SnapshotOwnedPages)
	}
}

// TestDecidedBudgetAccounting checks that the fast path actually decides
// runs early on a workload dominated by quickly-settling faults, and that
// the budget's class breakdown is consistent with its totals.
func TestDecidedBudgetAccounting(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultCampaignConfig()
	cfg.Faults = 40
	cfg.Experiment = quickConfig()
	var prog Progress
	cfg.Progress = &prog
	res, err := RunCampaign("budget", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Budget
	if b.DecidedEarly == 0 {
		t.Error("no injection decided early; the fast path did not engage")
	}
	if b.CyclesSaved <= 0 || b.CyclesSimulated <= 0 {
		t.Errorf("degenerate budget: simulated %d, saved %d", b.CyclesSimulated, b.CyclesSaved)
	}
	var sim, saved int64
	for _, cb := range b.ByClass {
		sim += cb.Simulated
		saved += cb.Saved
	}
	if sim != b.CyclesSimulated || saved != b.CyclesSaved {
		t.Errorf("class breakdown (%d, %d) disagrees with totals (%d, %d)",
			sim, saved, b.CyclesSimulated, b.CyclesSaved)
	}
	if prog.CyclesSimulated.Load() != b.CyclesSimulated || prog.CyclesSaved.Load() != b.CyclesSaved {
		t.Errorf("progress counters (%d, %d) disagree with budget (%d, %d)",
			prog.CyclesSimulated.Load(), prog.CyclesSaved.Load(),
			b.CyclesSimulated, b.CyclesSaved)
	}
}

func TestBudgetMerge(t *testing.T) {
	b := Budget{CyclesSimulated: 10, CyclesSaved: 20, DecidedEarly: 1, VerifyForked: 2, ProofFallbacks: 3,
		ByClass: map[Category]ClassBudget{ITRMask: {Simulated: 4, Saved: 5}}}
	var sum Budget
	sum.Merge(b)
	sum.Merge(b)
	want := Budget{CyclesSimulated: 20, CyclesSaved: 40, DecidedEarly: 2, VerifyForked: 4, ProofFallbacks: 6,
		ByClass: map[Category]ClassBudget{ITRMask: {Simulated: 8, Saved: 10}}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("merged budget %+v, want %+v", sum, want)
	}
}

// TestConvergenceProof exercises the cursor's convergence proof directly: a
// fault-free machine must prove convergence at any commit boundary, and any
// single divergence in registers, PC, or memory — including on a page
// neither the machine nor the shadow touched — must defeat the proof.
func TestConvergenceProof(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	cpu, err := pipeline.New(p, cfg.pipelineConfig(core.ModeObserve))
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(2000)
	snap := cpu.Snapshot()
	cur := (&arena{prog: p}).attach(cpu, snap)
	cpu.Run(2000)
	if cpu.CommittedInsts() <= snap.Committed {
		t.Fatal("machine made no progress past the snapshot")
	}
	if !cur.converged(cpu) {
		t.Fatal("fault-free machine failed its own convergence proof")
	}

	arch := cpu.Committed()
	arch.R[5] ^= 1
	if cur.converged(cpu) {
		t.Error("proof survived a corrupted integer register")
	}
	arch.R[5] ^= 1

	pc := arch.PC
	arch.PC ^= 4
	if cur.converged(cpu) {
		t.Error("proof survived a corrupted PC")
	}
	arch.PC = pc

	// A store to a page neither execution dirtied: the machine-side memory
	// gains a page the shadow lacks, which the one-sided page compare
	// must catch.
	mem, ok := arch.Mem.(*isa.Memory)
	if !ok {
		t.Fatal("committed state is not backed by isa.Memory")
	}
	const farAddr = 0x40_0000
	mem.Store(farAddr, 8, 0xbad)
	if cur.converged(cpu) {
		t.Error("proof survived a corrupted memory word")
	}
	mem.Store(farAddr, 8, 0)
	if !cur.converged(cpu) {
		t.Error("proof failed after corruption was reverted to zero")
	}
}

// TestMemoryEqual pins the generation-tag page diff underneath the
// convergence proof: snapshot-shared pages compare by pointer, diverged
// copies by content, and pages present on one side only compare against
// zeros (copy-on-write never materializes untouched pages).
func TestMemoryEqual(t *testing.T) {
	a := isa.NewMemory()
	a.Store(0x1000, 8, 7)
	a.Store(0x9000, 8, 9)

	b := isa.NewMemory()
	b.CopyFrom(a)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("copy-on-write clone not equal to source")
	}

	// Same content written independently: compares by data, not pointer.
	c := isa.NewMemory()
	c.Store(0x1000, 8, 7)
	c.Store(0x9000, 8, 9)
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("identical contents in distinct pages not equal")
	}

	// Divergent word.
	c.Store(0x9000, 8, 10)
	if a.Equal(c) || c.Equal(a) {
		t.Fatal("divergent contents reported equal")
	}

	// One-sided page holding only zeros is equal to an absent page...
	d := isa.NewMemory()
	d.CopyFrom(a)
	d.Store(0x20_000, 8, 1)
	d.Store(0x20_000, 8, 0)
	if !a.Equal(d) || !d.Equal(a) {
		t.Fatal("all-zero one-sided page broke equality")
	}
	// ...and a nonzero one-sided page is not.
	d.Store(0x20_000, 8, 2)
	if a.Equal(d) || d.Equal(a) {
		t.Fatal("nonzero one-sided page reported equal")
	}
}

// multiPageSrc builds a ring of 24 nodes, one per 4 KiB data page (the
// 4104-byte stride also staggers their in-page offsets), then chases it
// forever, rewriting two words of every node it visits. Each loop iteration
// dirties a different page, so snapshots, the golden shadow, checkpoint
// rollback and the convergence proof all see multi-page copy-on-write diffs.
const multiPageSrc = `
        addi  r1, r0, 24         ; node count
        addi  r4, r0, 0x2000     ; ring base
        addi  r5, r0, 0          ; node index
        add   r6, r4, r0         ; cursor
init:   addi  r7, r6, 4104       ; next node, one page on
        sd    r7, 0(r6)          ; node.next
        sd    r5, 8(r6)          ; node.val
        add   r6, r7, r0
        addi  r5, r5, 1
        bne   r5, r1, init
        addi  r6, r6, -4104      ; last node closes the ring
        sd    r4, 0(r6)
        add   r6, r4, r0
        addi  r2, r0, 0
chase:  ld    r8, 8(r6)
        add   r2, r2, r8
        addi  r8, r8, 3
        sd    r8, 8(r6)
        xor   r9, r2, r8
        sd    r9, 16(r6)
        ld    r6, 0(r6)          ; pointer chase to the next page
        j     chase
        halt                     ; unreachable: the window ends the run
`

// TestMultiPageCampaignSound checks the decided-outcome engine, snapshot
// resume and the golden shadow where their soundness leans on memory, on a
// program whose working set spans 24 data pages. The shadow's checkpoint
// rollback rewinds a many-page diff. In a campaign, decided Details equal
// exact ones and snapshot-resumed Details equal cold ones, the snapshot
// series owns more than one page, and the sample holds both SDCs and masked
// faults.
func TestMultiPageCampaignSound(t *testing.T) {
	t.Parallel()
	p, err := asm.Assemble("multipage", multiPageSrc)
	if err != nil {
		t.Fatal(err)
	}

	// Take a checkpoint once the ring is built, chase it about twice round,
	// roll back: every node's value is the take's again, and re-executing
	// the same commits stays clean, since each one loads what an earlier
	// one stored.
	const take, end = 200, 600
	pcs, outs := liveOutcomes(p, end)
	cur := zeroCursor(t, p)
	feed := func(from, to int) {
		for i := from; i < to; i++ {
			cur.observe(pcs[i], &outs[i])
		}
	}
	vals := func() (v [24]uint64) {
		for k := range v {
			v[k] = cur.mem.Load(0x2000+uint64(k)*4104+8, 8)
		}
		return v
	}
	feed(0, take)
	cur.checkpoint(true)
	taken := vals()
	feed(take, end)
	if n := cur.mem.DirtyPages(); n < 16 {
		t.Fatalf("shadow dirtied %d pages past the take, want >= 16", n)
	}
	cur.checkpoint(false)
	if got := vals(); got != taken || cur.st.PC != pcs[take] || cur.diverged {
		t.Fatalf("after rollback: node values %v pc %d diverged %v, want %v %d false", got, cur.st.PC, cur.diverged, taken, pcs[take])
	}
	feed(take, end)
	if cur.diverged {
		t.Fatal("re-execution after a multi-page rollback diverged")
	}

	run := func(exact bool, interval int64) CampaignResult {
		t.Helper()
		cfg := DefaultCampaignConfig()
		cfg.Faults = 60
		cfg.Workers = 2
		cfg.Experiment = quickConfig()
		cfg.Experiment.Exact = exact
		cfg.Experiment.SnapshotInterval = interval
		res, err := RunCampaign("multipage", p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	decided := run(false, 0)
	for name, other := range map[string]CampaignResult{"exact": run(true, 0), "cold": run(false, -1)} {
		for i := range decided.Details {
			if decided.Details[i] != other.Details[i] {
				t.Fatalf("injection %d: decided from snapshots %+v\n%s %+v", i, decided.Details[i], name, other.Details[i])
			}
		}
	}
	if decided.SnapshotOwnedPages <= 1 {
		t.Fatalf("snapshot series owns %d pages, want a multi-page footprint", decided.SnapshotOwnedPages)
	}
	if decided.Budget.DecidedEarly == 0 {
		t.Fatal("no run was decided early, so no convergence proof passed")
	}
	var sdc, masked int
	for _, d := range decided.Details {
		switch {
		case d.NaturalSDC:
			sdc++
		case !d.Deadlock:
			masked++
		}
	}
	if sdc == 0 || masked == 0 {
		t.Fatalf("%d SDC and %d masked faults, want both: %v", sdc, masked, decided.Counts)
	}
}
