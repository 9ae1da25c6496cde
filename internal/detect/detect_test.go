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
// at trace skip, with the signature of trace bad corrupted. Each trace
// commits right after its dispatch (observe mode, so nothing stalls or
// flushes).
func driveBackend(d core.Detector, p *program.Program, skip, n, bad int) {
	i := 0
	trace.Stream(p, 0, func(ev trace.Event) bool {
		if i >= skip {
			if i == bad {
				ev.Sig ^= 1 << 7
			}
			d.SetNow(int64(i))
			d.DispatchTrace(ev, false)
			d.Poll()
			d.CommitTraceEnd()
		}
		i++
		return i < skip+n
	})
}

// TestBackendStateRoundTrip: each rival backend's RestoreState puts back
// exactly the plain state CaptureState took, whatever ran in between.
// Comparing repTFDVals and dmeVals with == also keeps them comparable: a
// slice field added to either fails to compile.
func TestBackendStateRoundTrip(t *testing.T) {
	p := testProg(t)
	rep, err := NewRepTFD(p, core.ModeObserve, Options{ChunkTraces: 4})
	if err != nil {
		t.Fatal(err)
	}
	driveBackend(rep, p, 0, 30, 21)
	rs := rep.CaptureState().(*RepTFDState)
	driveBackend(rep, p, 30, 30, 41)
	if rep.repTFDVals == rs.v {
		t.Fatal("reptfd: plain state unchanged by further execution")
	}
	if err := rep.RestoreState(rs); err != nil {
		t.Fatal(err)
	}
	if rep.repTFDVals != rs.v {
		t.Fatalf("reptfd: plain state did not round-trip:\ngot  %+v\nwant %+v", rep.repTFDVals, rs.v)
	}

	dme, err := NewDME(p, core.ModeObserve, Options{})
	if err != nil {
		t.Fatal(err)
	}
	driveBackend(dme, p, 0, 30, 21)
	ds := dme.CaptureState().(*DMEState)
	driveBackend(dme, p, 30, 30, 41)
	if dme.dmeVals == ds.v {
		t.Fatal("dme: plain state unchanged by further execution")
	}
	if err := dme.RestoreState(ds); err != nil {
		t.Fatal(err)
	}
	if dme.dmeVals != ds.v {
		t.Fatalf("dme: plain state did not round-trip:\ngot  %+v\nwant %+v", dme.dmeVals, ds.v)
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
