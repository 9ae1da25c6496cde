package detect

import (
	"reflect"
	"strings"
	"testing"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/program"
	"itr/internal/trace"
)

// testProg builds a small loop with memory traffic for backend construction.
func testProg(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("detect-test")
	b.OpImm(isa.OpAddi, 1, 0, 100)
	b.OpImm(isa.OpAddi, 4, 0, 0x1000)
	b.Label("loop")
	b.OpImm(isa.OpAddi, 3, 3, 1)
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

func TestNamesAndCanonical(t *testing.T) {
	if got := Names(); !reflect.DeepEqual(got, []string{NameITR, NameRepTFD, NameDME}) {
		t.Fatalf("Names() = %v", got)
	}
	cases := []struct{ in, want string }{
		{"", NameITR},
		{"itr", NameITR},
		{"ITR", NameITR},
		{" reptfd ", NameRepTFD},
		{"Dme", NameDME},
		{"bogus", "bogus"},
	}
	for _, c := range cases {
		if got := Canonical(c.in); got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestKnown(t *testing.T) {
	for _, name := range append(Names(), "", "ITR", " dme ") {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	for _, name := range []string{"bogus", "itr2", "replay"} {
		if Known(name) {
			t.Errorf("Known(%q) = true", name)
		}
	}
}

// TestPreCommit pins the classification contract: RepTFD's chunked replay is
// the only backend whose detections land after the faulty instance committed.
func TestPreCommit(t *testing.T) {
	for _, name := range []string{"", NameITR, NameDME, "DME"} {
		if !PreCommit(name) {
			t.Errorf("PreCommit(%q) = false", name)
		}
	}
	for _, name := range []string{NameRepTFD, "REPTFD", " reptfd "} {
		if PreCommit(name) {
			t.Errorf("PreCommit(%q) = true", name)
		}
	}
}

// TestNewDispatch checks the factory builds the right concrete backend (the
// empty name meaning ITR) and rejects unknown names and modes.
func TestNewDispatch(t *testing.T) {
	p := testProg(t)
	cfg := core.DefaultConfig()

	d, err := New("", p, cfg, core.ModeFull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*core.Checker); !ok {
		t.Fatalf("New(\"\") built %T, want *core.Checker", d)
	}
	if d, err = New(NameRepTFD, p, cfg, core.ModeFull, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*RepTFD); !ok {
		t.Fatalf("New(reptfd) built %T", d)
	}
	if d, err = New(NameDME, p, cfg, core.ModeObserve, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*DME); !ok {
		t.Fatalf("New(dme) built %T", d)
	}

	if _, err := New("bogus", p, cfg, core.ModeFull, Options{}); err == nil {
		t.Fatal("unknown backend accepted")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error does not name the backend: %v", err)
	}
	for _, name := range Names() {
		if _, err := New(name, p, cfg, core.Mode(9), Options{}); err == nil {
			t.Errorf("%s: invalid mode accepted", name)
		}
	}
}

// TestRestoreRejectsForeignState: a capture only restores into a detector of
// the same backend with the same configuration — the sealed DetectorState
// types make any other pairing a descriptive error, not corruption.
func TestRestoreRejectsForeignState(t *testing.T) {
	p := testProg(t)
	rep, err := NewRepTFD(p, core.ModeFull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dme, err := NewDME(p, core.ModeFull, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if err := rep.RestoreState(dme.CaptureState()); err == nil {
		t.Fatal("reptfd restored a DME capture")
	}
	if err := dme.RestoreState(rep.CaptureState()); err == nil {
		t.Fatal("dme restored a RepTFD capture")
	}

	rep2, err := NewRepTFD(p, core.ModeFull, Options{ChunkTraces: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep2.RestoreState(rep.CaptureState()); err == nil {
		t.Fatal("reptfd restored a capture with a different chunk length")
	}
	dme2, err := NewDME(p, core.ModeFull, Options{AddrOffset: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := dme2.RestoreState(dme.CaptureState()); err == nil {
		t.Fatal("dme restored a capture with a different address offset")
	}
}

// driveBackend feeds a detector n traces of p's fault-free stream, starting
// at trace skip, with the signature of trace bad corrupted. sigs, when set,
// replaces each trace's signature with sigs[StartPC] (a rename checker's
// view of the same stream). Each trace commits right after its dispatch
// whatever the verdict, so in full mode retries and machine checks pile up
// in the state.
func driveBackend(d core.Detector, p *program.Program, sigs []uint64, skip, n, bad int) {
	i := 0
	trace.Stream(p, 0, func(ev trace.Event) bool {
		if i >= skip {
			if sigs != nil {
				ev.Sig = sigs[ev.StartPC]
			}
			if i == bad {
				ev.Sig ^= 1 << 7
			}
			d.Base().SetNow(int64(i))
			d.DispatchTrace(ev, false)
			d.Poll()
			d.CommitTraceEnd()
		}
		i++
		return i < skip+n
	})
}

// TestStateRoundTrip: every backend's RestoreState puts back exactly the
// plain state CaptureState took, whatever ran in between: the frame's (the
// retry, pending verdict, timebase and counters) and the backend's own.
// Comparing the plain-state structs with == also keeps them comparable: a
// slice field added to one fails to compile.
func TestStateRoundTrip(t *testing.T) {
	p := testProg(t)
	// A rename checker is an ITR checker fed per-trace folds of the
	// rename-map indexes instead of the decode signatures.
	renameSigs := p.DecodeTable().FoldTraces(func(d isa.DecodeSignals) uint64 {
		return uint64(d.Rsrc1) | uint64(d.Rsrc2)<<5 | uint64(d.Rdst)<<10
	})
	cfg := core.Config{Entries: 16, Assoc: 2}
	rows := []struct {
		name, backend string
		sigs          []uint64
		// same compares the backend's own plain state with its capture's.
		same func(d core.Detector, s core.DetectorState) bool
	}{
		{NameITR, NameITR, nil, nil},
		{"rename", NameITR, renameSigs, nil},
		{NameRepTFD, NameRepTFD, nil, func(d core.Detector, s core.DetectorState) bool {
			return d.(*RepTFD).repTFDVals == s.(*RepTFDState).v
		}},
		{NameDME, NameDME, nil, func(d core.Detector, s core.DetectorState) bool {
			return d.(*DME).resync == s.(*DMEState).resync
		}},
	}
	for _, mode := range []core.Mode{core.ModeFull, core.ModeObserve} {
		for _, row := range rows {
			t.Run(row.name+"/"+modeName(mode), func(t *testing.T) {
				d, err := New(row.backend, p, cfg, mode, Options{ChunkTraces: 4})
				if err != nil {
					t.Fatal(err)
				}
				driveBackend(d, p, row.sigs, 0, 30, 21)
				st := d.CaptureState()
				driveBackend(d, p, row.sigs, 30, 30, 41)
				if d.Base().SameVals(st) {
					t.Fatal("plain state unchanged by further execution; the round trip would be vacuous")
				}
				if err := d.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				if !d.Base().SameVals(st) {
					t.Fatal("frame plain state did not round-trip")
				}
				if row.same != nil && !row.same(d, st) {
					t.Fatal("backend plain state did not round-trip")
				}
			})
		}
	}
}

// TestOptionsNormalize: the zero Options value means the documented defaults.
func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.ChunkTraces != DefaultChunkTraces || o.AddrOffset != DefaultAddrOffset {
		t.Fatalf("normalize(zero) = %+v", o)
	}
	o = Options{ChunkTraces: 3, AddrOffset: 1 << 16}.normalize()
	if o.ChunkTraces != 3 || o.AddrOffset != 1<<16 {
		t.Fatalf("normalize clobbered explicit options: %+v", o)
	}
}

// TestChunkFoldOrderSensitive: the RepTFD digest fold must distinguish the
// same signatures in a different order, or two compensating in-chunk faults
// could cancel.
func TestChunkFoldOrderSensitive(t *testing.T) {
	ab := chunkFold(chunkFold(0, 0xa), 0xb)
	ba := chunkFold(chunkFold(0, 0xb), 0xa)
	if ab == ba {
		t.Fatal("chunk fold is order-insensitive")
	}
}
