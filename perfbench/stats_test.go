package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100..1
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{0.5, 50, true},   // 50 samples beyond
		{0.9, 90, true},   // exactly 10 beyond
		{0.91, 91, false}, // 9 beyond
		{0.99, 99, false},
	} {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(p=%g) = %v, %v; want %v, %v", c.p, got, ok, c.want, c.ok)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.95, 200}, {0.99, 1000}} {
		n := minSamplesFor(c.p)
		if n != c.want {
			t.Errorf("minSamplesFor(%g) = %d, want %d", c.p, n, c.want)
		}
		xs := make([]float64, n)
		if _, ok := percentile(xs, c.p); !ok {
			t.Errorf("p%g not reportable with %d samples", c.p*100, n)
		}
		if _, ok := percentile(xs[:n-1], c.p); ok {
			t.Errorf("p%g reportable with only %d samples", c.p*100, n-1)
		}
	}
}

func TestPercentileKeepsFailuresInfinite(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _ := percentile(xs, 0.99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 1.1%% failures = %v, want +Inf", v)
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{5, 1, 3, 2, 4, 9, 7, 8, 6, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := quartileSpread([]float64{5, 1, 3, 2, 4, 9, 7, 8, 6, 10}); got != 5.5/5.5 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func TestWindowedMedianIgnoresOneSlowWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		v := 1.0
		if w == 2 {
			v = 50 // the host stalled during one window
		}
		for i := 0; i < 40; i++ {
			xs = append(xs, v+float64(i%3)/10)
		}
	}
	got, ok := windowedMedian(xs, 5)
	if !ok || got != 1.1 {
		t.Errorf("windowedMedian = %v, %v; want 1.1, true", got, ok)
	}
	if _, ok := windowedMedian(xs[:90], 5); ok {
		t.Error("windows of 18 samples reported a median")
	}
}
