package main

import (
	"math"
	"testing"
)

func TestTailUsesHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, // 10 samples above rank 990
		{999, 0.98},  // p99 would leave only 9
		{2000, 0.99},
		{256, 0.96},
		{100, 0.90},
		{20, 0.50},
		{12, 0.50},
		{0, 0.50},
	} {
		if got := tailQ(tc.n, 0.99); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailQ(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 {
			q := tailQ(tc.n, 0.99)
			if beyond := tc.n - int(math.Ceil(q*float64(tc.n))); beyond < minBeyond {
				t.Errorf("n=%d: p%.0f leaves %d samples beyond", tc.n, q*100, beyond)
			}
		}
	}
}

func TestTailReportsValueAndCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	p := newDist(xs).tail(0.99)
	if p.Value != 990 || p.Q != 0.99 || p.N != 1000 {
		t.Fatalf("tail = %+v, want 990 at p99 of 1000", p)
	}
	if got := newDist(xs).median(); got != 500 {
		t.Fatalf("median = %v, want 500", got)
	}
	if got := (dist{}).tail(0.99); got.Value != 0 || got.N != 0 {
		t.Fatalf("empty tail = %+v", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{0.5, 0.25, 7, 3.5, 9, 1, 2}, [3]float64{0.5, 2, 7}},
	} {
		got, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Fatal("quartiles of one sample: want an error")
	}
	sp, err := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if err != nil || math.Abs(sp-1) > 1e-12 {
		t.Fatalf("spread = %v, %v; want (82.5-27.5)/55 = 1", sp, err)
	}
}
