package detect

import (
	"testing"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/trace"
)

// protoProg is a loop whose body is two traces: a never-taken branch splits
// it, so a committed stream can skip a trace.
func protoProg(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("detect-protocol")
	b.OpImm(isa.OpAddi, 1, 0, 100)
	b.OpImm(isa.OpAddi, 4, 0, 0x1000)
	b.Label("loop")
	b.OpImm(isa.OpAddi, 3, 3, 1)
	b.Branch(isa.OpBeq, 3, 0, "body")
	b.Label("body")
	b.Store(isa.OpSd, 3, 4, 8)
	b.Load(isa.OpLd, 6, 4, 8)
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// protoRig drives one backend through the Section 2.2 protocol the way the
// pipeline does: dispatch a trace, poll at commit, and retire the head when
// the verdict lets it commit. acts collects every verdict other than
// proceed, in order.
type protoRig struct {
	t    *testing.T
	d    core.Detector
	evs  []trace.Event
	j    int // first event whose start PC repeats an earlier one
	now  int64
	acts []core.ActionKind
}

func (r *protoRig) dispatch(i int, bad bool) uint64 {
	r.t.Helper()
	ev := r.evs[i]
	if bad {
		ev.Sig ^= 1 << 7
	}
	seq, ok := r.d.DispatchTrace(ev)
	if !ok {
		r.t.Fatal("in-flight window full")
	}
	return seq
}

// poll takes one commit-time verdict; a proceed or a parity repair commits
// the head trace.
func (r *protoRig) poll() {
	a := r.d.Poll()
	if a.Kind != core.ActionProceed {
		r.acts = append(r.acts, a.Kind)
	}
	if a.Kind == core.ActionProceed || a.Kind == core.ActionParityRecovered {
		r.now++
		r.d.Base().SetNow(r.now)
		r.d.CommitTraceEnd()
	}
}

// step dispatches trace i (its signature corrupted when bad) and commits it.
func (r *protoRig) step(i int, bad bool) {
	r.dispatch(i, bad)
	r.poll()
}

// postFault commits a fault the backend can only see after commit: a
// corrupted signature folded into a RepTFD chunk, or a committed trace DME's
// shadow execution did not reach. ITR checks nothing after commit.
func (r *protoRig) postFault(name string) {
	switch name {
	case NameRepTFD:
		r.step(r.j, true)
	case NameDME:
		r.step(r.j+1, false) // skips trace j
	}
}

func statsDelta(a, b core.Stats) core.Stats {
	return core.Stats{
		Dispatched: a.Dispatched - b.Dispatched, Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		Mismatches: a.Mismatches - b.Mismatches, Retries: a.Retries - b.Retries,
		Recoveries: a.Recoveries - b.Recoveries, MachineChecks: a.MachineChecks - b.MachineChecks,
		ParityRecovers: a.ParityRecovers - b.ParityRecovers, Writes: a.Writes - b.Writes,
		Squashed: a.Squashed - b.Squashed, ReplayedInsts: a.ReplayedInsts - b.ReplayedInsts,
		ChunksChecked: a.ChunksChecked - b.ChunksChecked,
	}
}

// TestBackendProtocol drives every backend, in full and in observe mode,
// through each path of the shared in-flight protocol and pins the verdicts
// and counter deltas. The scenario scripts are the same for all backends;
// the rows record how each backend's reference (the ITR cache, the static
// trace signature, or none before commit) turns them into verdicts. RepTFD
// runs one-trace chunks, so a corrupted commit closes its chunk at once.
func TestBackendProtocol(t *testing.T) {
	p := protoProg(t)
	var evs []trace.Event
	trace.Stream(p, 0, func(ev trace.Event) bool {
		evs = append(evs, ev)
		return len(evs) < 40
	})
	j := -1
	seen := map[uint64]bool{}
	for i, ev := range evs {
		if seen[ev.StartPC] {
			j = i
			break
		}
		seen[ev.StartPC] = true
	}
	if j < 0 || j+3 > len(evs) || evs[j+1].StartPC == evs[j].StartPC {
		t.Fatalf("stream has no usable repeated trace (j=%d)", j)
	}

	type stamp struct {
		at    int64
		found bool
	}
	scenarios := []struct {
		name string
		run  func(r *protoRig, name string) stamp
	}{
		{"first-mismatch", func(r *protoRig, _ string) stamp {
			r.step(r.j, true)
			return stamp{}
		}},
		{"retry-recovers", func(r *protoRig, _ string) stamp {
			r.step(r.j, true)
			r.step(r.j, false)
			return stamp{}
		}},
		{"retry-persists", func(r *protoRig, _ string) stamp {
			r.step(r.j, true)
			r.step(r.j, true)
			return stamp{}
		}},
		// The retried trace's evidence is discarded before it runs again,
		// so an ITR retry resolves through a miss and is dropped: the next
		// mismatch of the same trace is a first mismatch again.
		{"retry-resolves-by-miss", func(r *protoRig, _ string) stamp {
			r.step(r.j, true)
			r.d.DiscardSignature(r.evs[r.j].StartPC)
			r.step(r.j, false)
			r.step(r.j, true)
			return stamp{}
		}},
		{"post-commit-verdict", func(r *protoRig, name string) stamp {
			r.postFault(name)
			r.poll()
			at, found := r.d.SignatureStamp(r.evs[r.j].StartPC)
			return stamp{at, found}
		}},
		{"discard-verdict", func(r *protoRig, name string) stamp {
			r.postFault(name)
			r.d.DiscardSignature(r.evs[r.j].StartPC)
			r.poll()
			at, found := r.d.SignatureStamp(r.evs[r.j].StartPC)
			return stamp{at, found}
		}},
		{"squash", func(r *protoRig, _ string) stamp {
			keep := r.dispatch(r.j, false)
			r.dispatch(r.j+1, false)
			r.dispatch(r.j+2, false)
			r.d.Base().RollbackTo(keep)
			r.dispatch(r.j+1, false)
			r.d.Base().FlushAll()
			return stamp{}
		}},
	}

	const (
		R  = core.ActionRetry
		MC = core.ActionMachineCheck
	)
	type row struct {
		backend  string
		mode     core.Mode
		scenario string
		acts     []core.ActionKind
		stats    core.Stats
		stamp    stamp
	}
	// Traces before j commit cleanly first (the rig's prefix), so ITR has
	// trace j's signature installed and its stamp is the prefix commit
	// that installed it. A post-commit verdict is stamped at the first
	// commit after the prefix.
	post := int64(j) + 1
	var itrStamp int64
	for i := 0; i < j; i++ {
		if evs[i].StartPC == evs[j].StartPC {
			itrStamp = int64(i + 1)
		}
	}
	lenJ, lenJ1 := int64(evs[j].Len), int64(evs[j+1].Len)
	rows := []row{
		{NameITR, core.ModeFull, "first-mismatch", []core.ActionKind{R},
			core.Stats{Dispatched: 1, Hits: 1, Mismatches: 1, Retries: 1, Squashed: 1}, stamp{}},
		{NameITR, core.ModeFull, "retry-recovers", []core.ActionKind{R},
			core.Stats{Dispatched: 2, Hits: 2, Mismatches: 1, Retries: 1, Recoveries: 1, Squashed: 1}, stamp{}},
		{NameITR, core.ModeFull, "retry-persists", []core.ActionKind{R, MC},
			core.Stats{Dispatched: 2, Hits: 2, Mismatches: 2, Retries: 1, MachineChecks: 1, Squashed: 1}, stamp{}},
		{NameITR, core.ModeFull, "retry-resolves-by-miss", []core.ActionKind{R, R},
			core.Stats{Dispatched: 3, Hits: 2, Misses: 1, Mismatches: 2, Retries: 2, Writes: 1, Squashed: 2}, stamp{}},
		{NameITR, core.ModeFull, "post-commit-verdict", nil, core.Stats{}, stamp{itrStamp, true}},
		{NameITR, core.ModeFull, "discard-verdict", nil, core.Stats{}, stamp{}},
		{NameITR, core.ModeFull, "squash", nil, core.Stats{Dispatched: 4, Hits: 4, Squashed: 4}, stamp{}},

		{NameITR, core.ModeObserve, "first-mismatch", nil,
			core.Stats{Dispatched: 1, Hits: 1, Mismatches: 1}, stamp{}},
		{NameITR, core.ModeObserve, "retry-recovers", nil,
			core.Stats{Dispatched: 2, Hits: 2, Mismatches: 1}, stamp{}},
		{NameITR, core.ModeObserve, "retry-persists", nil,
			core.Stats{Dispatched: 2, Hits: 2, Mismatches: 2}, stamp{}},
		{NameITR, core.ModeObserve, "retry-resolves-by-miss", nil,
			core.Stats{Dispatched: 3, Hits: 2, Misses: 1, Mismatches: 2, Writes: 1}, stamp{}},
		{NameITR, core.ModeObserve, "post-commit-verdict", nil, core.Stats{}, stamp{itrStamp, true}},
		{NameITR, core.ModeObserve, "discard-verdict", nil, core.Stats{}, stamp{}},
		{NameITR, core.ModeObserve, "squash", nil, core.Stats{Dispatched: 4, Hits: 4, Squashed: 4}, stamp{}},

		{NameRepTFD, core.ModeFull, "first-mismatch", nil,
			core.Stats{Dispatched: 1, Mismatches: 1, ReplayedInsts: lenJ, ChunksChecked: 1}, stamp{}},
		{NameRepTFD, core.ModeFull, "retry-recovers", []core.ActionKind{MC},
			core.Stats{Dispatched: 2, Mismatches: 1, MachineChecks: 1, ReplayedInsts: lenJ, ChunksChecked: 1}, stamp{}},
		{NameRepTFD, core.ModeFull, "retry-persists", []core.ActionKind{MC},
			core.Stats{Dispatched: 2, Mismatches: 1, MachineChecks: 1, ReplayedInsts: lenJ, ChunksChecked: 1}, stamp{}},
		{NameRepTFD, core.ModeFull, "retry-resolves-by-miss", nil,
			core.Stats{Dispatched: 3, Mismatches: 2, ReplayedInsts: 3 * lenJ, ChunksChecked: 3}, stamp{}},
		{NameRepTFD, core.ModeFull, "post-commit-verdict", []core.ActionKind{MC},
			core.Stats{Dispatched: 1, Mismatches: 1, MachineChecks: 1, ReplayedInsts: lenJ, ChunksChecked: 1}, stamp{post, true}},
		{NameRepTFD, core.ModeFull, "discard-verdict", nil,
			core.Stats{Dispatched: 1, Mismatches: 1, ReplayedInsts: lenJ, ChunksChecked: 1}, stamp{}},
		{NameRepTFD, core.ModeFull, "squash", nil, core.Stats{Dispatched: 4, Squashed: 4}, stamp{}},

		{NameRepTFD, core.ModeObserve, "first-mismatch", nil,
			core.Stats{Dispatched: 1, Mismatches: 1, ReplayedInsts: lenJ, ChunksChecked: 1}, stamp{}},
		{NameRepTFD, core.ModeObserve, "retry-recovers", nil,
			core.Stats{Dispatched: 2, Mismatches: 1, ReplayedInsts: 2 * lenJ, ChunksChecked: 2}, stamp{}},
		{NameRepTFD, core.ModeObserve, "retry-persists", nil,
			core.Stats{Dispatched: 2, Mismatches: 2, ReplayedInsts: 2 * lenJ, ChunksChecked: 2}, stamp{}},
		{NameRepTFD, core.ModeObserve, "retry-resolves-by-miss", nil,
			core.Stats{Dispatched: 3, Mismatches: 2, ReplayedInsts: 3 * lenJ, ChunksChecked: 3}, stamp{}},
		{NameRepTFD, core.ModeObserve, "post-commit-verdict", nil,
			core.Stats{Dispatched: 1, Mismatches: 1, ReplayedInsts: lenJ, ChunksChecked: 1}, stamp{}},
		{NameRepTFD, core.ModeObserve, "discard-verdict", nil,
			core.Stats{Dispatched: 1, Mismatches: 1, ReplayedInsts: lenJ, ChunksChecked: 1}, stamp{}},
		{NameRepTFD, core.ModeObserve, "squash", nil, core.Stats{Dispatched: 4, Squashed: 4}, stamp{}},

		{NameDME, core.ModeFull, "first-mismatch", []core.ActionKind{R},
			core.Stats{Dispatched: 1, Hits: 1, Mismatches: 1, Retries: 1, Squashed: 1}, stamp{}},
		{NameDME, core.ModeFull, "retry-recovers", []core.ActionKind{R},
			core.Stats{Dispatched: 2, Hits: 2, Mismatches: 1, Retries: 1, Recoveries: 1, Squashed: 1, ReplayedInsts: lenJ}, stamp{}},
		{NameDME, core.ModeFull, "retry-persists", []core.ActionKind{R, MC},
			core.Stats{Dispatched: 2, Hits: 2, Mismatches: 2, Retries: 1, MachineChecks: 1, Squashed: 1}, stamp{}},
		{NameDME, core.ModeFull, "retry-resolves-by-miss", []core.ActionKind{R, R},
			core.Stats{Dispatched: 3, Hits: 3, Mismatches: 2, Retries: 2, Recoveries: 1, Squashed: 2, ReplayedInsts: lenJ}, stamp{}},
		{NameDME, core.ModeFull, "post-commit-verdict", []core.ActionKind{MC},
			core.Stats{Dispatched: 1, Hits: 1, Mismatches: 1, MachineChecks: 1}, stamp{post, true}},
		{NameDME, core.ModeFull, "discard-verdict", nil,
			core.Stats{Dispatched: 1, Hits: 1, Mismatches: 1}, stamp{}},
		{NameDME, core.ModeFull, "squash", nil, core.Stats{Dispatched: 4, Hits: 4, Squashed: 4}, stamp{}},

		{NameDME, core.ModeObserve, "first-mismatch", nil,
			core.Stats{Dispatched: 1, Hits: 1, Mismatches: 1, ReplayedInsts: lenJ}, stamp{}},
		{NameDME, core.ModeObserve, "retry-recovers", nil,
			core.Stats{Dispatched: 2, Hits: 2, Mismatches: 2, ReplayedInsts: 2 * lenJ}, stamp{}},
		{NameDME, core.ModeObserve, "retry-persists", nil,
			core.Stats{Dispatched: 2, Hits: 2, Mismatches: 3, ReplayedInsts: 2 * lenJ}, stamp{}},
		{NameDME, core.ModeObserve, "retry-resolves-by-miss", nil,
			core.Stats{Dispatched: 3, Hits: 3, Mismatches: 3, ReplayedInsts: 3 * lenJ}, stamp{}},
		{NameDME, core.ModeObserve, "post-commit-verdict", nil,
			core.Stats{Dispatched: 1, Hits: 1, Mismatches: 1, ReplayedInsts: lenJ1}, stamp{}},
		{NameDME, core.ModeObserve, "discard-verdict", nil,
			core.Stats{Dispatched: 1, Hits: 1, Mismatches: 1, ReplayedInsts: lenJ1}, stamp{}},
		{NameDME, core.ModeObserve, "squash", nil, core.Stats{Dispatched: 4, Hits: 4, Squashed: 4}, stamp{}},
	}

	run := map[string]func(*protoRig, string) stamp{}
	for _, s := range scenarios {
		run[s.name] = s.run
	}
	if len(rows) != len(scenarios)*2*len(Names()) {
		t.Fatalf("%d rows, want one per backend, mode and scenario", len(rows))
	}
	for _, w := range rows {
		t.Run(w.backend+"/"+modeName(w.mode)+"/"+w.scenario, func(t *testing.T) {
			d, err := New(w.backend, p, core.Config{Entries: 16, Assoc: 2}, w.mode, Options{ChunkTraces: 1})
			if err != nil {
				t.Fatal(err)
			}
			r := &protoRig{t: t, d: d, evs: evs, j: j}
			for i := 0; i < j; i++ {
				r.step(i, false)
			}
			if r.acts != nil {
				t.Fatalf("fault-free prefix acted: %v", r.acts)
			}
			base := d.Base().Stats()
			got := run[w.scenario](r, w.backend)
			if !equalKinds(r.acts, w.acts) {
				t.Errorf("verdicts = %v, want %v", r.acts, w.acts)
			}
			if delta := statsDelta(d.Base().Stats(), base); delta != w.stats {
				t.Errorf("stats delta:\ngot  %+v\nwant %+v", delta, w.stats)
			}
			if got != w.stamp {
				t.Errorf("SignatureStamp = %+v, want %+v", got, w.stamp)
			}
		})
	}
}

func modeName(m core.Mode) string {
	if m == core.ModeObserve {
		return "observe"
	}
	return "full"
}

func equalKinds(a, b []core.ActionKind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
