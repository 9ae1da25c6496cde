package report

import (
	"strings"
	"testing"
)

func TestPerfComparison(t *testing.T) {
	rows, err := new(Engine).PerfComparison(small(t, "gap"), 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.BaseIPC <= 1 {
		t.Fatalf("base IPC %.2f implausible", r.BaseIPC)
	}
	// ITR and structural duplication must not cost frontend bandwidth.
	if r.ITRIPC < r.BaseIPC*0.98 {
		t.Fatalf("ITR cost IPC: %.2f vs %.2f", r.ITRIPC, r.BaseIPC)
	}
	if r.DualDecodeIPC < r.BaseIPC*0.98 {
		t.Fatalf("dual decode cost IPC: %.2f vs %.2f", r.DualDecodeIPC, r.BaseIPC)
	}
	// Time redundancy must pay roughly half the frontend bandwidth.
	if r.TimeRedundantIPC > r.BaseIPC*0.7 {
		t.Fatalf("time redundancy too cheap: %.2f vs %.2f", r.TimeRedundantIPC, r.BaseIPC)
	}
}

func TestPerfTableRender(t *testing.T) {
	rows := []PerfRow{{Benchmark: "x", BaseIPC: 4, ITRIPC: 4, DualDecodeIPC: 4, TimeRedundantIPC: 2}}
	out := PerfTable(rows).String()
	if !strings.Contains(out, "x") || !strings.Contains(out, "50.00") {
		t.Fatalf("render:\n%s", out)
	}
}
