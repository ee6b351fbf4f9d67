package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the samples at
// or below it. Nearest-rank never interpolates, so every reported latency
// is one that a transaction actually observed.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of vs (mean of the two middle values for an
// even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sliceStat is a metric's per-slice values reduced for reporting: the
// median is the metric, min and max are printed beside it so a stall
// confined to one slice is visible without moving the number.
type sliceStat struct {
	Median, Min, Max float64
	N                int
}

func reduceSlices(vs []float64) sliceStat {
	st := sliceStat{Median: median(vs), N: len(vs)}
	for i, v := range vs {
		if i == 0 || v < st.Min {
			st.Min = v
		}
		if i == 0 || v > st.Max {
			st.Max = v
		}
	}
	return st
}

// quartiles returns Q1, Q2, Q3 by the exclusive method — the same values
// Python's statistics.quantiles(vs, n=4) gives, which is what the driver
// that gates this benchmark computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median: the noise
// figure every bound in BENCHMARK.json is compared with.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
