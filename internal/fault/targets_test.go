package fault

import "testing"

func TestPCFaultMidTraceDetectedByITR(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	// Sweep cycles until an ITR detection appears: a low-bit PC flip lands
	// mid-trace most of the time on this tight loop.
	var faults []pcFault
	for cycle := int64(500); cycle < 560; cycle += 7 {
		faults = append(faults, pcFault{cycle: cycle, bit: 1})
	}
	st, err := newPCStudy(p, cfg, faults)
	if err != nil {
		t.Fatal(err)
	}
	a := &arena{prog: p}
	sawITR := false
	for i, f := range faults {
		out, err := st.run(a, i, f)
		if err != nil {
			t.Fatal(err)
		}
		if out == PCDetectedITR {
			sawITR = true
			break
		}
	}
	if !sawITR {
		t.Fatal("no mid-trace PC fault was detected by ITR")
	}
}

func TestPCFaultCampaignCoversOutcomes(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	res, err := RunPCFaultCampaign(p, cfg, 20, 0x77)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 20 {
		t.Fatalf("total = %d", res.Total)
	}
	sum := 0
	for _, o := range PCOutcomes() {
		sum += res.Counts[o]
	}
	if sum != 20 {
		t.Fatalf("outcome counts sum to %d", sum)
	}
	// On a tight loop a healthy share of flips land mid-trace and are
	// detected by ITR.
	if res.Pct(PCDetectedITR) < 20 {
		t.Fatalf("ITR detected only %.0f%% of PC faults", res.Pct(PCDetectedITR))
	}
}

func TestPCFaultCampaignValidation(t *testing.T) {
	p := testProgram(t)
	if _, err := RunPCFaultCampaign(p, quickConfig(), 0, 1); err == nil {
		t.Fatal("zero-count campaign accepted")
	}
}

// hotCacheFault corrupts resident lines until it hits one that execution
// actually re-references (cold run-once lines are the legitimately masked
// case).
func hotCacheFault(t *testing.T, parity bool) (CacheFaultOutcome, bool) {
	t.Helper()
	p := testProgram(t)
	st, err := newCacheStudy(p, quickConfig(), parity, 2000)
	if err != nil {
		t.Fatal(err)
	}
	a := &arena{prog: p}
	for pick := uint64(0); pick < 8; pick++ {
		o, err := st.run(a, int(pick), cacheFault{pick: pick, bit: 9})
		if err != nil {
			t.Fatal(err)
		}
		if o.out != CacheMasked {
			return o.out, o.sdc
		}
	}
	t.Fatal("every resident line was cold")
	return "", false
}

func TestCacheFaultWithoutParityIsFalseMachineCheck(t *testing.T) {
	out, sdc := hotCacheFault(t, false)
	if out != CacheFalseMachineCheck {
		t.Fatalf("outcome = %s, want false machine check (Section 2.4)", out)
	}
	if sdc {
		t.Fatal("an ITR cache fault must never corrupt architectural state")
	}
}

func TestCacheFaultWithParityIsRepaired(t *testing.T) {
	out, sdc := hotCacheFault(t, true)
	if out != CacheParityRepaired {
		t.Fatalf("outcome = %s, want parity repair", out)
	}
	if sdc {
		t.Fatal("parity repair must not corrupt state")
	}
}

func TestCacheFaultCampaign(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	noParity, err := RunCacheFaultCampaign(p, cfg, false, 8, 0x5)
	if err != nil {
		t.Fatal(err)
	}
	withParity, err := RunCacheFaultCampaign(p, cfg, true, 8, 0x5)
	if err != nil {
		t.Fatal(err)
	}
	if noParity.SDC != 0 || withParity.SDC != 0 {
		t.Fatal("cache faults corrupted architectural state")
	}
	if withParity.Counts[CacheFalseMachineCheck] > 0 {
		t.Fatalf("parity left %d false machine checks", withParity.Counts[CacheFalseMachineCheck])
	}
	// Without parity, referenced corrupted lines abort the program.
	if noParity.Counts[CacheFalseMachineCheck] == 0 {
		t.Fatal("no false machine checks without parity — faults never referenced?")
	}
}
