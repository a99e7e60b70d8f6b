package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples: the smallest sample with at least q·n samples at or below it.
// The samples are sorted in place. It returns 0 for an empty set.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(len(samples)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// supportedTail returns the highest percentile in tailPercentiles that
// leaves at least ten samples beyond it in a set of n, or 0 when even
// the median does not.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		beyond := float64(n) - math.Ceil(p/100*float64(n)-1e-9)
		if beyond >= 10 {
			return p
		}
	}
	return 0
}

// summary describes one latency sample set in milliseconds.
type summary struct {
	N         int
	P50       float64
	P99       float64
	Tail      float64 // highest percentile with ≥10 samples beyond it
	TailValue float64
}

func summarize(samples []float64) summary {
	s := summary{N: len(samples), Tail: supportedTail(len(samples))}
	if s.N == 0 {
		return s
	}
	cp := append([]float64(nil), samples...)
	s.P50 = quantile(cp, 0.50)
	s.P99 = quantile(cp, 0.99)
	if s.Tail > 0 {
		s.TailValue = quantile(cp, s.Tail/100)
	}
	return s
}

// refWindows is how many consecutive windows the reference rung's
// samples are split into for windowedP99.
const refWindows = 5

// windowedP99 splits samples (in due order) into refWindows equal
// consecutive windows and returns the median of the windows' p99s: one
// window hit by a stall the system did not cause (another tenant of the
// host, a scheduler hiccup) moves the figure no more than a quiet one.
func windowedP99(samples []float64) float64 {
	n := len(samples)
	if n < refWindows {
		return quantile(append([]float64(nil), samples...), 0.99)
	}
	var p99s []float64
	for w := 0; w < refWindows; w++ {
		win := append([]float64(nil), samples[w*n/refWindows:(w+1)*n/refWindows]...)
		p99s = append(p99s, quantile(win, 0.99))
	}
	return median(p99s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
