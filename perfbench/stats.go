package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported as a measurement rather than marked.
const minBeyond = 10

// quantile is one percentile of a sample with the count behind it.
type quantile struct {
	Value   float64
	Samples int
	// Beyond counts the samples ranked after the one reported.
	Beyond int
}

// Marked reports whether too few samples lie beyond the percentile for it
// to count as measured.
func (q quantile) Marked() bool { return q.Beyond < minBeyond }

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return quantile{Value: s[idx], Samples: n, Beyond: n - 1 - idx}
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
// It needs at least two samples.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(seconds float64) float64 { return seconds * 1000 }
