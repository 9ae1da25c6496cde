// Package trace implements trace formation and the program-repetition
// characterization of the paper's Section 1.
//
// Instructions are grouped into traces by one rule, isa.EndsTrace: a trace
// ends at a branching instruction or at its 16th instruction. A *static*
// trace is identified by its start PC: from a fixed start PC the instruction
// sequence of the trace is deterministic (the first branching instruction
// always terminates it), which is precisely why a PC-indexed signature cache
// works. Former applies the rule to the pipeline's decode stream, and
// program.DecodeTable to the static image: its static walk, and the length
// pass of the trace records Stream runs a functional program from (through
// isa.ExecTrace, one straight-line loop per trace).
package trace

import (
	"sort"

	"itr/internal/isa"
	"itr/internal/sig"
	"itr/internal/stats"
)

// Event is one completed dynamic trace instance.
type Event struct {
	StartPC uint64 // static trace identity (ITR cache key)
	Len     int    // dynamic instructions in this instance
	Sig     uint64 // XOR signature of the instance's decode signals
	// Partial marks a trace truncated by end-of-stream (a budget cut or a
	// halt in Stream, or Former.Flush) rather than ended by
	// isa.EndsTrace. Partial instances carry a prefix signature and are
	// excluded from signature-stability accounting.
	Partial bool
}

// Former groups an in-order instruction stream into traces.
// The zero value is ready to use.
type Former struct {
	acc     sig.Accumulator
	startPC uint64
}

// StepTerm folds the instruction at pc, with packed signal word w, into the
// open trace (opening one at pc if none is) and reports whether it ends the
// trace. It inlines into the pipeline's dispatch loop: no Event materializes
// mid-trace, and the caller collects the finished trace with Take only on the
// terminating instruction.
func (f *Former) StepTerm(pc uint64, w uint64) bool {
	if f.acc.Len() == 0 {
		f.startPC = pc
	}
	f.acc.Add(w)
	return isa.EndsTrace(w, f.acc.Len())
}

// Take closes the open trace and returns it as an Event. Call it when
// StepTerm reports the end of a trace.
func (f *Former) Take() Event {
	ev := Event{StartPC: f.startPC, Len: f.acc.Len(), Sig: f.acc.Value()}
	f.acc.Reset()
	return ev
}

// Flush terminates any open trace at end of stream, as a Partial event.
func (f *Former) Flush() (ev Event, ok bool) {
	if f.acc.Len() == 0 {
		return Event{}, false
	}
	ev = f.Take()
	ev.Partial = true
	return ev, true
}

// Reset abandons any open trace (used on pipeline flushes: the re-fetched
// instructions restart trace formation at the restart PC).
func (f *Former) Reset() { f.acc.Reset() }

// traceStat accumulates per-static-trace statistics.
type traceStat struct {
	dynInsts     int64 // dynamic instructions contributed by all instances
	occurrences  int64
	lastStartDyn int64 // dynamic-instruction index at which the last instance started
	length       int   // static length (instructions)
	sig          uint64
	sigConflict  bool // a second instance produced a different signature
}

// Characterizer reproduces the paper's repetition characterization:
// static trace counts (Table 1), the dynamic-instruction-per-static-trace
// CDF (Figures 1-2), and the repeat-distance distribution (Figures 3-4).
type Characterizer struct {
	dynInsts int64
	perTrace map[uint64]*traceStat
	distHist *stats.Histogram
}

// NewCharacterizer returns an empty characterizer.
func NewCharacterizer() *Characterizer {
	return &Characterizer{
		perTrace: make(map[uint64]*traceStat),
		distHist: stats.NewHistogram(),
	}
}

// Add records one completed trace event.
func (c *Characterizer) Add(ev Event) {
	startDyn := c.dynInsts
	c.dynInsts += int64(ev.Len)
	st, ok := c.perTrace[ev.StartPC]
	if !ok {
		st = &traceStat{length: ev.Len, sig: ev.Sig, lastStartDyn: startDyn}
		c.perTrace[ev.StartPC] = st
		st.dynInsts = int64(ev.Len)
		st.occurrences = 1
		return
	}
	if st.sig != ev.Sig && !ev.Partial {
		st.sigConflict = true
	}
	// Repeat distance: dynamic instructions separating this instance's
	// start from the previous instance's start.
	c.distHist.AddWeighted(startDyn-st.lastStartDyn, float64(ev.Len))
	st.lastStartDyn = startDyn
	st.dynInsts += int64(ev.Len)
	st.occurrences++
}

// DynamicInstructions returns the total dynamic instructions observed.
func (c *Characterizer) DynamicInstructions() int64 { return c.dynInsts }

// StaticTraces returns the number of distinct static traces observed
// (the paper's Table 1 metric).
func (c *Characterizer) StaticTraces() int { return len(c.perTrace) }

// SignatureConflicts returns how many static traces ever produced two
// different signatures. For a correct trace former this is always zero; it
// is exposed as a self-check.
func (c *Characterizer) SignatureConflicts() int {
	n := 0
	for _, st := range c.perTrace {
		if st.sigConflict {
			n++
		}
	}
	return n
}

// PopularityCDF returns the cumulative percentage of dynamic instructions
// contributed by the top-k static traces, sampled at each multiple of step up
// to limit: the paper's Figures 1 (step 100) and 2 (step 50).
func (c *Characterizer) PopularityCDF(step, limit int) []stats.Point {
	contrib := make([]int64, 0, len(c.perTrace))
	for _, st := range c.perTrace {
		contrib = append(contrib, st.dynInsts)
	}
	sort.Slice(contrib, func(i, j int) bool { return contrib[i] > contrib[j] })

	points := make([]stats.Point, 0, limit/step)
	var cum int64
	idx := 0
	for k := step; k <= limit; k += step {
		for idx < len(contrib) && idx < k {
			cum += contrib[idx]
			idx++
		}
		pct := 0.0
		if c.dynInsts > 0 {
			pct = 100 * float64(cum) / float64(c.dynInsts)
		}
		points = append(points, stats.Point{X: float64(k), Y: pct})
	}
	return points
}

// CoverageAtTopK returns the percentage of dynamic instructions contributed
// by the k most popular static traces.
func (c *Characterizer) CoverageAtTopK(k int) float64 {
	pts := c.PopularityCDF(k, k)
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Y
}

// DistanceBuckets returns the cumulative percentage of dynamic instructions
// contributed by trace repetitions within each distance bucket
// (width 500 up to 10000 in the paper's Figures 3-4). Percentages are of
// *all* dynamic instructions, so first-occurrence instructions never reach
// 100%; this matches the paper's normalization.
func (c *Characterizer) DistanceBuckets(width, limit int64) []stats.BucketPoint {
	values := c.distHist.Values()
	points := make([]stats.BucketPoint, 0, limit/width)
	var below float64
	idx := 0
	for edge := width; edge <= limit; edge += width {
		for idx < len(values) && values[idx] < edge {
			below += c.distHist.Weight(values[idx])
			idx++
		}
		pct := 0.0
		if c.dynInsts > 0 {
			pct = 100 * below / float64(c.dynInsts)
		}
		points = append(points, stats.BucketPoint{UpperEdge: edge, CumulativePct: pct})
	}
	return points
}

// RepeatFractionWithin returns the fraction (0-100%) of dynamic instructions
// contributed by repetitions at distance < d.
func (c *Characterizer) RepeatFractionWithin(d int64) float64 {
	if c.dynInsts == 0 {
		return 0
	}
	var below float64
	for _, v := range c.distHist.Values() {
		if v < d {
			below += c.distHist.Weight(v)
		}
	}
	return 100 * below / float64(c.dynInsts)
}
