package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted:
// the smallest value with at least p·n values at or below it. For n = 40
// p = 0.75 picks the 30th value, which leaves ten samples beyond it —
// the highest percentile the benchmark reports.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[percentileIndex(len(sorted), p)]
}

// percentileIndex is the zero-based nearest-rank index of the p-quantile
// among n sorted samples.
func percentileIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// bestOfRounds returns, per slot, the minimum over rounds: scheduling
// noise on a shared host only ever adds time, so the fastest of a
// camera's samples is the closest one to the code's own cost.
func bestOfRounds(rounds [][]float64) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	best := append([]float64(nil), rounds[0]...)
	for _, r := range rounds[1:] {
		for i, v := range r {
			best[i] = math.Min(best[i], v)
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// median is the conventional median (mean of the middle pair for even n),
// the one Python's statistics.median computes.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) with
// its default "exclusive" method — the figure the acceptance driver uses
// for run-to-run spread — and needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// quartileSpread is (Q3 − Q1) / median: the spread the driver holds
// against a metric's bound.
func quartileSpread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
