package fault

import "testing"

func TestRenameFaultBlindSpotAndFix(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	a, st := &arena{prog: p}, newRenameStudy(p, cfg)
	// Find an injection causing SDC without the extension.
	var chosen *renameOutcome
	for idx := int64(300); idx < 330 && chosen == nil; idx++ {
		inj := RenameInjection{DecodeIndex: idx, Operand: 0, Mask: 0x1f}
		o, err := st.run(a, 0, inj)
		if err != nil {
			t.Fatal(err)
		}
		if o.frontendDetected {
			t.Fatal("frontend ITR detected a pure rename fault")
		}
		if o.withoutSDC {
			chosen = &o
		}
	}
	if chosen == nil {
		t.Fatal("no rename injection produced an SDC")
	}
	if !chosen.detected || !chosen.recovered {
		t.Fatalf("extension missed the fault: detected=%v recovered=%v", chosen.detected, chosen.recovered)
	}
	if chosen.withSDC {
		t.Fatal("extension failed to prevent the corruption")
	}
}

func TestRenameCampaign(t *testing.T) {
	p := testProgram(t)
	cfg := quickConfig()
	res, err := RunRenameCampaign(p, cfg, 10, 0x42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 10 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.FrontendDetected != 0 {
		t.Fatalf("frontend detected %d rename faults (must be blind)", res.FrontendDetected)
	}
	if res.DetectedWithExtension == 0 {
		t.Fatal("extension detected nothing")
	}
	// The extension must strictly reduce silent corruption.
	if res.SDCWithExtension >= res.SDCWithoutExtension && res.SDCWithoutExtension > 0 {
		t.Fatalf("no SDC reduction: %d -> %d", res.SDCWithoutExtension, res.SDCWithExtension)
	}
}

func TestRenameCampaignValidation(t *testing.T) {
	p := testProgram(t)
	if _, err := RunRenameCampaign(p, quickConfig(), 0, 1); err == nil {
		t.Fatal("zero count accepted")
	}
}
