package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before
// it is reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs
// and whether at least minBeyond samples rank above it. xs is not
// modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1], n-k >= minBeyond
}

// minSamplesFor is the smallest sample count at which percentile p is
// reportable.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		k := int(math.Ceil(p * float64(n)))
		if n-k >= minBeyond {
			return n
		}
	}
}

// quartileSpread is (Q3 - Q1) / median, with the quartiles taken as
// Python's statistics.quantiles(values, n=4) (exclusive method) does.
func quartileSpread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// quartiles mirrors statistics.quantiles(xs, n=4, method="exclusive").
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// windowedMedian splits xs, in the order they were taken, into n
// consecutive windows and returns the median of the windows' medians,
// so a slowdown of the host that spans less than half of the run does
// not move the result. ok is false when a window holds too few samples
// to report its median.
func windowedMedian(xs []float64, n int) (float64, bool) {
	var meds []float64
	for w := 0; w < n; w++ {
		m, ok := percentile(xs[w*len(xs)/n:(w+1)*len(xs)/n], 0.5)
		if !ok || math.IsInf(m, 0) {
			return 0, false
		}
		meds = append(meds, m)
	}
	return median(meds), true
}
