package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatalf("empty hist not zero")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	h.Observe(-5) // clamps to 0
	if h.Count() != 1001 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("Sum = %d", h.Sum())
	}
	// p50 of 1..1000 is ~500; the log2 bucket upper bound is 511.
	if got := h.Quantile(0.50); got != 511 {
		t.Fatalf("p50 = %d, want 511", got)
	}
	// p99 is ~990, bucket [512,1023].
	if got := h.Quantile(0.99); got != 1023 {
		t.Fatalf("p99 = %d, want 1023", got)
	}
	bs := h.Buckets()
	var n int64
	for i, b := range bs {
		if b.Lo > b.Hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, b.Lo, b.Hi)
		}
		if i > 0 && b.Lo <= bs[i-1].Hi {
			t.Fatalf("buckets overlap: %v", bs)
		}
		n += b.Count
	}
	if n != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", n, h.Count())
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	r := tr.Ring("w")
	for i := int64(0); i < 10; i++ {
		r.Emit(EvDetection, i, i*2)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first)", i, e.Cycle, want)
		}
	}
	if tr.Ring("w") != r {
		t.Fatalf("Ring not idempotent per label")
	}

	var nilRing *Ring
	nilRing.Emit(EvDetection, 1, 2) // must not panic
	nilRing.EmitSpan(EvStage, time.Now(), 0, 0)
	if nilRing.Len() != 0 || nilRing.Dropped() != 0 {
		t.Fatalf("nil ring not empty")
	}
}

func TestChromeExport(t *testing.T) {
	tr := NewTracer(16)
	a := tr.Ring("alpha")
	b := tr.Ring("beta")
	a.Emit(EvSnapshotCapture, 100, 7)
	b.EmitSpan(EvStage, time.Now().Add(-time.Millisecond), 0, 3)
	a.Emit(EvRollback, 222, 0x40)

	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	var names, threads, spans int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			threads++
		case "X":
			spans++
		case "i":
			names++
		}
	}
	if threads != 2 || names != 2 || spans != 1 {
		t.Fatalf("export shape: %d threads, %d instants, %d spans\n%s", threads, names, spans, sb.String())
	}
}

func TestRegistryPrometheusAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(5)
	reg.RegisterCounter("itr_cycles_total", &c)
	reg.RegisterGaugeFunc("itr_workers", func() int64 { return 3 })
	h := reg.Hist(`itr_latency_cycles{backend="dme"}`)
	h.Observe(3)
	h.Observe(100)
	if reg.Hist(`itr_latency_cycles{backend="dme"}`) != h {
		t.Fatalf("Hist not idempotent per name")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE itr_cycles_total counter\n",
		"itr_cycles_total 5\n",
		"itr_workers 3\n",
		`itr_latency_cycles_bucket{backend="dme",le="3"} 1`,
		`itr_latency_cycles_bucket{backend="dme",le="+Inf"} 2`,
		`itr_latency_cycles_sum{backend="dme"} 103`,
		`itr_latency_cycles_count{backend="dme"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	snap := reg.Snapshot()
	if snap["itr_cycles_total"] != 5 || snap[`itr_latency_cycles{backend="dme"}`] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(9)
	reg.RegisterCounter("itr_test_total", &c)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	if got := get("/metrics"); !strings.Contains(got, "itr_test_total 9") {
		t.Fatalf("/metrics:\n%s", got)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["itr_metrics"]; !ok {
		t.Fatalf("/debug/vars missing itr_metrics: %v", vars)
	}
	if got := get("/debug/pprof/"); !strings.Contains(got, "goroutine") {
		t.Fatalf("/debug/pprof/ index:\n%s", got)
	}

	// A second server (fresh registry) must not trip expvar's
	// duplicate-publish panic and must serve the new registry's values.
	reg2 := NewRegistry()
	var c2 Counter
	c2.Add(11)
	reg2.RegisterCounter("itr_test_total", &c2)
	srv2, err := Serve("127.0.0.1:0", reg2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get("http://" + srv2.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "itr_test_total 11") {
		t.Fatalf("second server /metrics:\n%s", body)
	}
}

// TestConcurrentHammer drives a shared counter, a histogram, per-worker
// rings, and concurrent registry reads from a worker pool; run under
// -race it is the tentpole's data-race regression test.
func TestConcurrentHammer(t *testing.T) {
	const workers = 8
	const perWorker = 2000

	reg := NewRegistry()
	var c Counter
	reg.RegisterCounter("hammer_total", &c)
	h := reg.Hist("hammer_hist")
	tr := NewTracer(64)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ring := tr.Ring(fmt.Sprintf("worker-%d", w))
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				h.Observe(int64(i))
				ring.Emit(EvInjectStart, int64(i), int64(w))
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			reg.WritePrometheus(&sb)
			reg.Snapshot()
			c.Load()
			h.Quantile(0.99)
		}
	}()
	wg.Wait()
	<-done

	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
	if got := tr.TotalEvents(); got != workers*perWorker {
		t.Fatalf("tracer events = %d, want %d", got, workers*perWorker)
	}
}
