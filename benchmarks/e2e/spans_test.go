package main

import (
	"math"
	"testing"
	"time"

	"itr/internal/fault"
	"itr/internal/obs"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 0.5, 9, 4, 4.5}, 1.5, 4, 6.75},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if math.Abs(s.Q1-c.q1) > 1e-12 || math.Abs(s.Median-c.m) > 1e-12 || math.Abs(s.Q3-c.q3) > 1e-12 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", c.xs, s, c.q1, c.m, c.q3)
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestQuantileDurationNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantileDuration(ds, c.p); got != c.want {
			t.Errorf("quantileDuration(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantileDuration(nil, 0.5); got != 0 {
		t.Errorf("quantileDuration(nil) = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover 10..50 once; the third is clipped
		// to the parent's end.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestPairInjectionsIntoClassSums(t *testing.T) {
	tr := obs.NewTracer(64)
	w0, w1 := tr.Ring("fault-worker-0"), tr.Ring("fault-worker-1")
	w0.Emit(obs.EvInjectStart, 500, 3)
	w1.Emit(obs.EvInjectStart, 700, 36)
	w0.Emit(obs.EvSnapshotRestore, 0, 0) // other events on the ring are skipped
	w0.Emit(obs.EvInjectClassify, 500, 1)
	w0.Emit(obs.EvInjectStart, 900, 12)
	w1.Emit(obs.EvInjectClassify, 700, 0)
	w0.Emit(obs.EvInjectClassify, 900, 1)

	injs, err := pairInjections([][]obs.Event{w0.Events(), w1.Events()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(injs) != 3 {
		t.Fatalf("got %d injection spans, want 3", len(injs))
	}
	var total time.Duration
	for _, in := range injs {
		if in.Start < time.Second || in.End < in.Start {
			t.Errorf("span %+v not shifted onto the offset or reversed", in)
		}
		total += in.End - in.Start
	}
	if injs[2].Worker != 1 || injs[2].Key != (injKey{700, 36}) {
		t.Errorf("worker 1's injection = %+v", injs[2])
	}

	details := []fault.Detail{
		{Injection: fault.Injection{DecodeIndex: 900, Bit: 12}, Category: fault.ITRSDCR},
		{Injection: fault.Injection{DecodeIndex: 500, Bit: 3}, Category: fault.ITRMask},
		{Injection: fault.Injection{DecodeIndex: 700, Bit: 36}, Category: fault.UndetSDC},
	}
	cats, err := injectionClasses(injs, details)
	if err != nil {
		t.Fatal(err)
	}
	sums := classSums(injs, cats)
	var sum time.Duration
	for _, g := range classGroups {
		sum += sums[g]
	}
	if sum != total || len(sums) != 3 {
		t.Errorf("class sums %v add to %v, want all three groups summing to %v", sums, sum, total)
	}
	if sums["other"] != injs[2].End-injs[2].Start {
		t.Errorf("Undet+SDC time went to %v", sums)
	}
	if _, err := injectionClasses(injs, details[:2]); err == nil {
		t.Error("injection without a detail was joined")
	}
}

func TestPairInjectionsRejectsBrokenRings(t *testing.T) {
	ev := func(kind obs.EventKind, idx int64) obs.Event { return obs.Event{Kind: kind, Cycle: idx} }
	for name, ring := range map[string][]obs.Event{
		"classify without start": {ev(obs.EvInjectClassify, 5)},
		"never classified":       {ev(obs.EvInjectStart, 5)},
		"nested start":           {ev(obs.EvInjectStart, 5), ev(obs.EvInjectStart, 6)},
		"wrong classify":         {ev(obs.EvInjectStart, 5), ev(obs.EvInjectClassify, 6)},
	} {
		if _, err := pairInjections([][]obs.Event{ring}, 0); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
