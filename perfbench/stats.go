package main

import (
	"math"
	"sort"
)

// maxTailPercentile caps the tail percentile: the figures later changes are
// judged by are p50 and p90, so a long run never switches to p99.
const maxTailPercentile = 90

// tailPercentile returns the highest whole percentile, at most p90, that
// leaves at least 10 of n samples above it (by nearest rank). ok is false
// when that percentile would fall below the median, i.e. n < 20.
func tailPercentile(n int) (p int, ok bool) {
	if n < 20 {
		return 0, false
	}
	p = 100 * (n - 10) / n
	if p > maxTailPercentile {
		p = maxTailPercentile
	}
	return p, true
}

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// rule: the smallest sample with at least p% of the samples at or below it.
func nearestRank(sorted []float64, p int) float64 {
	k := (p*len(sorted) + 99) / 100
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// median returns the middle of values (the mean of the middle two for an
// even count), NaN when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// summary is one timing series reduced to the figures the report prints.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	// TailPct is the percentile Tail reports, chosen by tailPercentile; 0
	// (with Tail = P50) when the series is too short for a tail.
	TailPct int     `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func summarize(values []float64) summary {
	s := summary{N: len(values), P50: median(values)}
	s.Tail = s.P50
	if p, ok := tailPercentile(len(values)); ok {
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		s.TailPct, s.Tail = p, nearestRank(sorted, p)
	}
	return s
}
