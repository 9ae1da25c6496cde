package stats

import (
	"fmt"
	"sort"
)

// Histogram tallies integer-valued samples, each with an optional
// per-sample weight. It is used for repeat-distance distributions
// (Figures 3-4 of the paper) where the weight of a trace repetition is the
// number of dynamic instructions it contributes.
type Histogram struct {
	counts map[int64]float64
	total  float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int64]float64)}
}

// Add records one sample with weight 1.
func (h *Histogram) Add(v int64) { h.AddWeighted(v, 1) }

// AddWeighted records one sample with the given weight.
func (h *Histogram) AddWeighted(v int64, w float64) {
	h.counts[v] += w
	h.total += w
}

// Total returns the sum of all weights recorded.
func (h *Histogram) Total() float64 { return h.total }

// Weight returns the weight recorded at exactly v.
func (h *Histogram) Weight(v int64) float64 { return h.counts[v] }

// CumulativeBelow returns the fraction of total weight with sample value < v.
// It returns 0 for an empty histogram.
func (h *Histogram) CumulativeBelow(v int64) float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for k, w := range h.counts {
		if k < v {
			sum += w
		}
	}
	return sum / h.total
}

// Buckets aggregates the histogram into half-open buckets
// [0,width), [width,2*width), ... up to limit, returning the cumulative
// fraction of weight below each bucket's upper edge. This matches the
// "< 500, < 1000, ..." x-axis of the paper's Figures 3 and 4.
func (h *Histogram) Buckets(width, limit int64) []BucketPoint {
	if width <= 0 {
		return nil
	}
	n := int(limit / width)
	points := make([]BucketPoint, 0, n)
	for i := 1; i <= n; i++ {
		edge := int64(i) * width
		points = append(points, BucketPoint{
			UpperEdge:     edge,
			CumulativePct: 100 * h.CumulativeBelow(edge),
		})
	}
	return points
}

// Values returns all distinct sample values in ascending order.
func (h *Histogram) Values() []int64 {
	vs := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		vs = append(vs, k)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// BucketPoint is one point of a cumulative bucketed distribution:
// CumulativePct percent of total weight lies strictly below UpperEdge.
type BucketPoint struct {
	UpperEdge     int64
	CumulativePct float64
}

func (p BucketPoint) String() string {
	return fmt.Sprintf("<%d: %.1f%%", p.UpperEdge, p.CumulativePct)
}

// Counter accumulates named integer counts. It is the common accounting
// structure for cache statistics and campaign outcome tallies.
type Counter struct {
	counts map[string]int64
	order  []string
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int64)}
}

// Inc adds delta to the named count, registering the name on first use.
func (c *Counter) Inc(name string, delta int64) {
	if _, ok := c.counts[name]; !ok {
		c.order = append(c.order, name)
	}
	c.counts[name] += delta
}

// Get returns the named count (0 if never incremented).
func (c *Counter) Get(name string) int64 { return c.counts[name] }

// Names returns the registered names in first-use order.
func (c *Counter) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Total returns the sum of all counts.
func (c *Counter) Total() int64 {
	var t int64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Pct returns 100 * count(name) / Total(), or 0 when empty.
func (c *Counter) Pct(name string) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(c.counts[name]) / float64(t)
}
