package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestZipfQueriesAreSeeded(t *testing.T) {
	a := zipfQueries(7, 384, 5000, 10)
	if !reflect.DeepEqual(a, zipfQueries(7, 384, 5000, 10)) {
		t.Fatal("same seed gave different queries")
	}
	if reflect.DeepEqual(a, zipfQueries(8, 384, 5000, 10)) {
		t.Fatal("different seeds gave the same queries")
	}
}

func TestZipfQueriesShape(t *testing.T) {
	const entries = 384
	qs := zipfQueries(1, entries, 20000, 10)
	count := map[int]int{}
	for i, q := range qs {
		count[q.Entry]++
		if q.Entry < 0 || q.Entry >= entries {
			t.Fatalf("query %d asks for entry %d of %d", i, q.Entry, entries)
		}
		if q.Nearest != (i%2 == 1) {
			t.Fatalf("query %d: nearest %v, want the two modes alternating", i, q.Nearest)
		}
		if q.Nearest && math.Abs(q.Offset) >= 9 {
			t.Fatalf("nearest offset %v reaches past 0.9 of the half step", q.Offset)
		}
		if !q.Nearest && q.Offset != 0 {
			t.Fatalf("exact query with offset %v", q.Offset)
		}
	}
	// Zipf in index order: entry 0 is the most requested and far above a
	// uniform share.
	for e, c := range count {
		if c > count[0] {
			t.Fatalf("entry %d (%d requests) beats entry 0 (%d)", e, c, count[0])
		}
	}
	if count[0] < 10*len(qs)/entries {
		t.Fatalf("entry 0 got %d of %d requests: not skewed", count[0], len(qs))
	}
}

func TestPoissonSchedule(t *testing.T) {
	const n, rate = 20000, 2000.0
	dues := poissonSchedule(3, n, rate)
	if !reflect.DeepEqual(dues, poissonSchedule(3, n, rate)) {
		t.Fatal("same seed gave a different schedule")
	}
	for i := 1; i < n; i++ {
		if dues[i] < dues[i-1] {
			t.Fatalf("due time %d goes backwards", i)
		}
	}
	if got := float64(n) / dues[n-1].Seconds(); math.Abs(got/rate-1) > 0.03 {
		t.Fatalf("offered rate %.0f req/s, want %.0f", got, rate)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	dues := []time.Duration{0, 2 * time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond}
	qs := make([]query, len(dues))
	for i := range qs {
		qs[i].Entry = i
	}
	start := time.Now()
	var issued []time.Duration
	w, err := openLoop(dues, qs, 1, fetcher{
		request: func(q query, a *answer) error {
			issued = append(issued, time.Since(start))
			return nil
		},
		check: func(q query, a *answer) error {
			time.Sleep(time.Millisecond) // an untimed check adds no latency
			if q.Entry == 2 {
				return errors.New("bad answer")
			}
			return nil
		},
	})
	if err == nil || err.Error() != "bad answer" {
		t.Fatalf("open loop kept error %v, want the failed check's", err)
	}
	for i, at := range issued {
		if at < dues[i] {
			t.Fatalf("request %d issued at %v, before its due time %v", i, at, dues[i])
		}
	}
	if w.Failed != 1 || !math.IsInf(w.Latency[2], 1) || len(w.Late) != len(dues) {
		t.Fatalf("window %+v: want request 2 failed with infinite latency", w)
	}
	if w.meets(1e9) {
		t.Fatal("a window with a failed request met the limit")
	}
}

func TestClosedLoopTimesRequestsOnly(t *testing.T) {
	qs := make([]query, 20)
	fs, err := closedLoop(qs, 2, fetcher{
		request: func(q query, a *answer) error { return nil },
		check: func(q query, a *answer) error {
			time.Sleep(2 * time.Millisecond)
			return nil
		},
	})
	if err != nil || fs.failed != 0 || len(fs.lat) != len(qs) {
		t.Fatalf("closed loop: %v, %d failed, %d latencies", err, fs.failed, len(fs.lat))
	}
	// The checks took 20 ms per client; none of it may be timed.
	if fs.busy > 0.005 || newDist(fs.lat).tail(0.99).Value > 1000 {
		t.Fatalf("busy %v s, p99 %v µs: the checks were timed", fs.busy, newDist(fs.lat).tail(0.99))
	}
}

func TestRateLadder(t *testing.T) {
	l := rateLadder(1000, 64000, 1.05)
	if l[0] != 1000 || l[len(l)-1] > 64000 || l[len(l)-1]*1.05 <= 64000 {
		t.Fatalf("ladder ends %v..%v", l[0], l[len(l)-1])
	}
	for i := 1; i < len(l); i++ {
		if r := l[i] / l[i-1]; math.Abs(r-1.05) > 0.001 {
			t.Fatalf("rung %d steps by %v", i, r)
		}
	}
}

func TestSearchLadder(t *testing.T) {
	for _, tc := range []struct{ rungs, top int }{
		{86, 40}, {86, 0}, {86, 85}, {86, -1}, {1, 0}, {1, -1},
	} {
		probed := map[int]bool{}
		got := searchLadder(tc.rungs, func(i int) bool {
			if probed[i] {
				t.Fatalf("rung %d probed twice", i)
			}
			probed[i] = true
			return i <= tc.top
		})
		if got != tc.top {
			t.Errorf("rungs %d, passing up to %d: search found %d", tc.rungs, tc.top, got)
		}
		if len(probed) > 8 {
			t.Errorf("search made %d probes over %d rungs", len(probed), tc.rungs)
		}
	}
}
