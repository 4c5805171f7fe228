package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer is noise, so the harness reports the
// highest percentile the sample count supports instead.
const minBeyond = 10

// dist is a sorted sample of one measured quantity.
type dist []float64

// newDist copies and sorts xs.
func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// at returns the nearest-rank q-quantile (0 for an empty sample).
func (d dist) at(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// median returns the 0.5 quantile.
func (d dist) median() float64 { return d.at(0.5) }

// tailQ returns the highest whole percentile, at most want, that leaves at
// least minBeyond samples above its nearest rank, never below the median.
func tailQ(n int, want float64) float64 {
	for pct := math.Round(want * 100); pct > 50; pct-- {
		q := pct / 100
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// pctl is a percentile as reported: the value, the percentile it really
// is, and the sample count it rests on.
type pctl struct {
	Value float64
	Q     float64
	N     int
}

// tail returns the want-percentile, or the highest one the sample count
// supports.
func (d dist) tail(want float64) pctl {
	q := tailQ(len(d), want)
	return pctl{Value: d.at(q), Q: q, N: len(d)}
}

func (p pctl) String() string {
	return fmt.Sprintf("%.4g (p%.0f of %d)", p.Value, p.Q*100, p.N)
}

// quartiles returns the first, second and third quartiles of xs by the
// same rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), which is how runs of this benchmark are compared. It needs at
// least two samples.
func quartiles(xs []float64) ([3]float64, error) {
	var out [3]float64
	n := len(xs)
	if n < 2 {
		return out, fmt.Errorf("quartiles need at least 2 samples, got %d", n)
	}
	d := newDist(xs)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out, nil
}

// spread is the quartile distance of xs as a share of its median: the
// run-to-run noise figure bounds are compared against.
func spread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q[1] == 0 {
		return 0, nil
	}
	return (q[2] - q[0]) / math.Abs(q[1]), nil
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

const (
	// maxSteal is the largest share of the machine's CPU time the
	// hypervisor may steal during a repetition for it to count. On a
	// shared virtual machine, neighbours' load comes and goes for seconds
	// at a time and stretches every wall time it overlaps; a repetition
	// it hit measured the host, not the program.
	maxSteal = 0.05
	// minKept is how many repetitions a metric rests on at least: when
	// fewer were left alone, the least-stolen ones are used. Few, so that
	// under lasting contention the ones kept are the least disturbed.
	minKept = 3
)

// series is one metric's value per repetition, with the steal share of
// each repetition.
type series struct {
	vals, steal []float64
}

func (s *series) add(v, steal float64) {
	s.vals = append(s.vals, v)
	s.steal = append(s.steal, steal)
}

// kept returns the values of the repetitions the hypervisor left alone
// or, when fewer than minKept were, of the minKept least-stolen ones.
func (s series) kept() []float64 {
	var out []float64
	for i, v := range s.vals {
		if s.steal[i] <= maxSteal {
			out = append(out, v)
		}
	}
	if len(out) >= minKept || len(out) == len(s.vals) {
		return out
	}
	idx := make([]int, len(s.vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.steal[idx[a]] < s.steal[idx[b]] })
	out = out[:0]
	for _, i := range idx[:min(minKept, len(idx))] {
		out = append(out, s.vals[i])
	}
	return out
}

// enough reports whether minKept repetitions were left alone.
func (s series) enough() bool {
	n := 0
	for _, st := range s.steal {
		if st <= maxSteal {
			n++
		}
	}
	return n >= minKept
}
