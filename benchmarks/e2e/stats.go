package main

import (
	"math"
	"sort"
	"time"
)

// summary is one metric's sample distribution.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs, computed as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// numbers printed here can be recomputed with Python's statistics module. A
// single sample is its own median and quartiles.
func summarize(xs []float64) summary {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: d[0], Q1: d[0], Q3: d[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// quantileDuration returns the p-quantile (0 < p <= 1) of ds by the
// nearest-rank rule, or 0 for no durations.
func quantileDuration(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	d := append([]time.Duration(nil), ds...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	k := int(math.Ceil(p*float64(len(d)))) - 1
	return d[max(k, 0)]
}
