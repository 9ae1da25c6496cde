package fault

import (
	"testing"

	"itr/internal/core"
	"itr/internal/isa"
	"itr/internal/pipeline"
	"itr/internal/program"
	"itr/internal/sig"
)

// testProgram is a compact loop nest that exercises the ITR cache quickly.
func testProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("fault-test")
	b.OpImm(isa.OpAddi, 1, 0, 30000)
	b.OpImm(isa.OpAddi, 4, 0, 0x1000)
	b.Label("outer")
	b.OpImm(isa.OpAddi, 2, 0, 50)
	b.Label("inner")
	b.OpImm(isa.OpAddi, 3, 3, 1)
	b.Op(isa.OpMul, 5, 3, 3)
	b.Store(isa.OpSd, 5, 4, 8)
	b.Load(isa.OpLd, 6, 4, 8)
	b.Op(isa.OpXor, 7, 6, 3)
	b.OpImm(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "inner")
	b.OpImm(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "outer")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.WindowCycles = 20_000
	return cfg
}

func TestCategoriesComplete(t *testing.T) {
	cats := Categories()
	if len(cats) != 10 {
		t.Fatalf("%d categories, want the 10 of Figure 8", len(cats))
	}
	seen := make(map[Category]bool)
	for _, c := range cats {
		if seen[c] {
			t.Fatalf("duplicate category %s", c)
		}
		seen[c] = true
	}
}

func TestInjectionField(t *testing.T) {
	if f := (Injection{Bit: 0}).Field(); f != "opcode" {
		t.Fatalf("bit 0 field = %s", f)
	}
	if f := (Injection{Bit: 42}).Field(); f != "imm" {
		t.Fatalf("bit 42 field = %s", f)
	}
}

func TestSigOracleMatchesTraceFormation(t *testing.T) {
	p := testProgram(t)
	oracle := NewSigOracle(p)
	// The inner-loop trace starts right after the inner-loop setup.
	// Verify against a direct computation from the image.
	start := uint64(4) // first instruction of the inner body (addi r3)
	var acc sig.Accumulator
	for pc := start; ; pc++ {
		w := isa.Decode(p.Fetch(pc)).Pack()
		acc.Add(w)
		if isa.EndsTrace(w, acc.Len()) {
			break
		}
	}
	if got := oracle.TrueSig(start); got != acc.Value() {
		t.Fatalf("oracle sig %#x, want %#x", got, acc.Value())
	}
	// Memoized second call agrees.
	if oracle.TrueSig(start) != acc.Value() {
		t.Fatal("memoized value differs")
	}
}

func TestRunOneLatFaultIsDetectedAndMasked(t *testing.T) {
	p := testProgram(t)
	oracle := NewSigOracle(p)
	// Bit 40 is the low lat bit: timing-only, always masked, but the
	// signature differs so ITR detects it.
	det, err := RunOne(p, oracle, quickConfig(), Injection{DecodeIndex: 500, Bit: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Detected {
		t.Fatalf("lat fault undetected: %+v", det)
	}
	if det.NaturalSDC {
		t.Fatal("lat fault corrupted architectural state")
	}
	if det.Category != ITRMask {
		t.Fatalf("category = %s, want %s", det.Category, ITRMask)
	}
}

func TestRunOneRdstFaultIsSDCAndRecoverable(t *testing.T) {
	p := testProgram(t)
	oracle := NewSigOracle(p)
	// Find an injection on an rdst bit that produces an SDC: rdst field is
	// bits 35-39. Try several dynamic points; the mul (rdst=5) flipping
	// bit 36 writes r7 instead of r5.
	var hit *Detail
	for idx := int64(300); idx < 340 && hit == nil; idx++ {
		det, err := RunOne(p, oracle, quickConfig(), Injection{DecodeIndex: idx, Bit: 36})
		if err != nil {
			t.Fatal(err)
		}
		if det.NaturalSDC && det.Detected {
			d := det
			hit = &d
		}
	}
	if hit == nil {
		t.Fatal("no rdst injection produced a detected SDC")
	}
	if !hit.Recoverable {
		t.Fatalf("rdst fault on a hot trace should be recoverable: %+v", *hit)
	}
	if hit.Category != ITRSDCR {
		t.Fatalf("category = %s, want %s", hit.Category, ITRSDCR)
	}
	// The verify run must confirm recovery.
	if !hit.Verified || !hit.RecoveredInFull || hit.MachineCheck || hit.SDCUnderITR {
		t.Fatalf("full protocol failed to recover: %+v", *hit)
	}
}

func TestRunOneVerifyDisabled(t *testing.T) {
	p := testProgram(t)
	oracle := NewSigOracle(p)
	cfg := quickConfig()
	cfg.Verify = false
	det, err := RunOne(p, oracle, cfg, Injection{DecodeIndex: 500, Bit: 40})
	if err != nil {
		t.Fatal(err)
	}
	if det.Verified {
		t.Fatal("verify ran despite being disabled")
	}
}

func TestClassifyMapping(t *testing.T) {
	cases := []struct {
		d    Detail
		want Category
	}{
		{Detail{Detected: true, Deadlock: true}, ITRWdogR},
		{Detail{Detected: true, NaturalSDC: true, Recoverable: true}, ITRSDCR},
		{Detail{Detected: true, NaturalSDC: true}, ITRSDCD},
		{Detail{Detected: true}, ITRMask},
		{Detail{FaultyResident: true, NaturalSDC: true}, MayITRSDC},
		{Detail{FaultyResident: true}, MayITRMask},
		{Detail{SpcFired: true, NaturalSDC: true}, SpcSDC},
		{Detail{NaturalSDC: true}, UndetSDC},
		{Detail{Deadlock: true}, UndetWdog},
		{Detail{}, UndetMask},
		// spc fired but masked folds into Undet+Mask (documented deviation:
		// the paper only reports spc+SDC).
		{Detail{SpcFired: true}, UndetMask},
	}
	for i, c := range cases {
		if got := classify(c.d); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

func TestCampaignSmall(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultCampaignConfig()
	cfg.Faults = 12
	cfg.Experiment.WindowCycles = 15_000
	res, err := RunCampaign("test", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 12 {
		t.Fatalf("total = %d", res.Total)
	}
	sum := 0
	for _, c := range Categories() {
		sum += res.Counts[c]
	}
	if sum != 12 {
		t.Fatalf("category counts sum to %d", sum)
	}
	if len(res.Details) != 12 {
		t.Fatalf("details = %d", len(res.Details))
	}
	// On this hot loop nearly everything is detected.
	if res.DetectedPct() < 50 {
		t.Fatalf("detected = %.1f%%, implausibly low for a hot loop", res.DetectedPct())
	}
	if res.RecoveryAttempted > 0 && res.RecoveryConfirmed != res.RecoveryAttempted {
		t.Fatalf("recovery confirmation %d/%d", res.RecoveryConfirmed, res.RecoveryAttempted)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultCampaignConfig()
	cfg.Faults = 6
	cfg.Experiment.WindowCycles = 10_000
	a, err := RunCampaign("a", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign("b", p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Categories() {
		if a.Counts[c] != b.Counts[c] {
			t.Fatalf("campaign not deterministic: %s %d vs %d", c, a.Counts[c], b.Counts[c])
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	p := testProgram(t)
	cfg := DefaultCampaignConfig()
	cfg.Faults = 0
	if _, err := RunCampaign("bad", p, cfg); err == nil {
		t.Fatal("zero faults accepted")
	}
	cfg.Faults = 1
	cfg.Experiment.WindowCycles = 10 // too small to profile
	if _, err := RunCampaign("bad", p, cfg); err == nil {
		t.Fatal("tiny window accepted")
	}
}

func TestCampaignPctHelpers(t *testing.T) {
	r := CampaignResult{Total: 200, Counts: map[Category]int{ITRMask: 100, ITRSDCR: 60, UndetSDC: 40}}
	if got := r.Pct(ITRMask); got != 50 {
		t.Fatalf("pct = %v", got)
	}
	if got := r.DetectedPct(); got != 80 {
		t.Fatalf("detected pct = %v", got)
	}
	var empty CampaignResult
	if empty.Pct(ITRMask) != 0 {
		t.Fatal("empty pct")
	}
}

func TestGoldenDetectsDivergence(t *testing.T) {
	p := testProgram(t)
	pcs, outs := liveOutcomes(p, 51)
	cur := zeroCursor(t, p)
	// Feed an independently executed true stream: no divergence.
	for i := range 50 {
		cur.observe(pcs[i], &outs[i])
	}
	if cur.diverged {
		t.Fatal("cursor diverged on the true stream")
	}
	// A commit at the wrong PC diverges even when its effect is the one the
	// shadow's state produces there, and the verdict sticks.
	wrong := cur.st.PC + 1
	var o isa.Outcome
	probe := *cur.st
	probe.ExecInto(&o, p.DecodeTable().Signals(wrong), wrong)
	cur.observe(wrong, &o)
	cur.observe(pcs[50], &outs[50])
	if !cur.diverged {
		t.Fatal("cursor missed a PC divergence")
	}

	// A cursor resumed from a mid-run snapshot expects that snapshot's PC,
	// and a corrupted outcome at the right PC diverges it.
	cpu, err := pipeline.New(p, quickConfig().pipelineConfig(core.ModeObserve))
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(500)
	snap := cpu.Snapshot()
	n := int(snap.Committed)
	pcs, outs = liveOutcomes(p, n+2)
	cur = (&arena{prog: p}).attach(cpu, snap)
	if cur.st.PC != pcs[n] {
		t.Fatalf("resumed cursor expects pc %d, want %d", cur.st.PC, pcs[n])
	}
	cur.observe(pcs[n], &outs[n])
	bad := outs[n+1]
	bad.NextPC ^= 1
	cur.observe(pcs[n+1], &bad)
	if !cur.diverged {
		t.Fatal("outcome mismatch not flagged by resumed cursor")
	}
}

func TestEffectiveSnapshotInterval(t *testing.T) {
	cases := []struct {
		in   int64
		want int64
	}{
		{0, DefaultSnapshotInterval}, // zero means the default
		{-1, 0},                      // negative disables the fast path
		{-8192, 0},
		{1, 1},
		{4096, 4096},
	}
	for _, tc := range cases {
		c := Config{SnapshotInterval: tc.in}
		if got := c.EffectiveSnapshotInterval(); got != tc.want {
			t.Errorf("EffectiveSnapshotInterval(%d) = %d; want %d", tc.in, got, tc.want)
		}
	}
}
