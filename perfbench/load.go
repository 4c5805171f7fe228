package main

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// zipfS is the skew of serve_zipf's key popularity: rank k is requested
// with probability proportional to 1/k^1.2.
const zipfS = 1.2

// query is one frame request: an entry of the served store, asked for
// exactly or (nearest) by a time off the stored axis point.
type query struct {
	Entry   int
	Nearest bool
	// Offset is added to the entry's time for a nearest query; it stays
	// within half the store's time step, so the snap lands on Entry.
	Offset float64
}

// subSeed derives the seed of one phase of a run from the workload
// seed, so each phase draws its own stream and the same seed gives the
// same inputs.
func subSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }

// zipfQueries returns n queries over an nEntries-frame store, drawn from
// the seed alone. Entries are Zipf(zipfS) distributed in index order, as
// cmd/cinemaload draws them. cinemaload asks either exactly or with
// nearest=1 for a whole run; here the two modes alternate, so every
// query at an odd position asks for the frame nearest a time up to 0.9
// halfStep off the stored one.
func zipfQueries(seed int64, nEntries, n int, halfStep float64) []query {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(nEntries-1))
	out := make([]query, n)
	for i := range out {
		out[i].Entry = int(z.Uint64())
		if i%2 == 1 {
			out[i].Nearest = true
			out[i].Offset = (rng.Float64()*2 - 1) * halfStep * 0.9
		}
	}
	return out
}

// answer is what one request brought back, kept for the check that runs
// after the clock has stopped. Each client connection has its own, and
// reuses its buffer from request to request.
type answer struct {
	status int
	file   string // the frame the server resolved
	data   []byte
	buf    bytes.Buffer
}

// fetcher is one way of asking for frames. request makes the request
// and reads the whole answer into a: the part a latency times. check
// then checks the answer, untimed.
type fetcher struct {
	request func(q query, a *answer) error
	check   func(q query, a *answer) error
}

// do makes one request through f and checks it, returning when the
// answer was read.
func (f fetcher) do(q query, a *answer) (time.Time, error) {
	err := f.request(q, a)
	done := time.Now()
	if err == nil {
		err = f.check(q, a)
	}
	return done, err
}

// poissonSchedule returns n due times, relative to the start of a window,
// for an open-loop generator offering rate requests per second with
// exponentially distributed gaps drawn from the seed.
func poissonSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * 1e9)
	}
	return out
}

// window is one open-loop window's measurements. Latency is timed from
// each request's due time, so a stall also charges the requests queued
// behind it; Late is how far behind schedule the generator itself issued
// each request.
type window struct {
	Latency []float64 // µs; +Inf for a failed request, which misses any limit
	Late    []float64 // µs
	Failed  int
	// Drain is how long after the last due time the last request
	// finished: it grows without bound when the offered rate exceeds
	// what the server sustains.
	Drain time.Duration
}

// openLoop offers queries qs on schedule dues through conns client
// goroutines. A request that finds every client busy waits in an
// unbounded queue, so a slow server meets the same offered load and the
// wait shows in the latency, which ends when the answer has been read.
// The first failure is kept.
func openLoop(dues []time.Duration, qs []query, conns int, f fetcher) (window, error) {
	queue := make(chan int, len(dues)) // sized to the whole schedule: the generator never blocks
	lat := make([]float64, len(dues))
	ok := make([]bool, len(dues))
	var lastDone time.Duration
	var fe firstErr
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a answer
			for i := range queue {
				at, err := f.do(qs[i], &a)
				ok[i] = fe.keep(err)
				done := at.Sub(start)
				lat[i] = float64(done-dues[i]) / 1e3
				mu.Lock()
				if done > lastDone {
					lastDone = done
				}
				mu.Unlock()
			}
		}()
	}
	late := make([]float64, len(dues))
	for i, due := range dues {
		waitUntil(start, due)
		late[i] = float64(time.Since(start)-due) / 1e3
		queue <- i
	}
	close(queue)
	wg.Wait()
	w := window{Latency: lat, Late: late}
	for i := range dues {
		if !ok[i] {
			lat[i] = math.Inf(1)
			w.Failed++
		}
	}
	if len(dues) > 0 {
		w.Drain = lastDone - dues[len(dues)-1]
	}
	return w, fe.err
}

// closedLoop runs qs through conns clients, each sending its next
// request when the previous answer has been read. The first failure is
// kept.
func closedLoop(qs []query, conns int, f fetcher) (fetchStats, error) {
	lat := make([]float64, len(qs))
	ok := make([]bool, len(qs))
	var next atomic.Int64
	var fe firstErr
	var wg sync.WaitGroup
	m := startMeter()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a answer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				s := time.Now()
				done, err := f.do(qs[i], &a)
				ok[i] = fe.keep(err)
				lat[i] = float64(done.Sub(s)) / 1e3
			}
		}()
	}
	wg.Wait()
	var fs fetchStats
	_, fs.steal = m.stop()
	for i := range qs {
		if ok[i] {
			fs.lat = append(fs.lat, lat[i])
			fs.busy += lat[i] / 1e6 / float64(conns)
		} else {
			fs.failed++
		}
	}
	return fs, fe.err
}

// firstErr keeps the first error reported from several goroutines.
type firstErr struct {
	mu  sync.Mutex
	err error
}

// keep records err if it is the first, and reports whether err is nil.
func (f *firstErr) keep(err error) bool {
	if err != nil {
		f.mu.Lock()
		if f.err == nil {
			f.err = err
		}
		f.mu.Unlock()
	}
	return err == nil
}

// waitUntil returns once start+due has passed. It sleeps in the kernel
// rather than on a Go timer: Go timers wake an idle process on a
// millisecond grid, which would be charged to every request as latency.
func waitUntil(start time.Time, due time.Duration) {
	for {
		wait := due - time.Since(start)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// meets reports whether a window kept the latency limit: no failed
// request (a failure misses any limit), the tail percentile within
// limitUS, and no backlog left when the schedule ended.
func (w window) meets(limitUS float64) bool {
	if w.Failed > 0 || len(w.Latency) == 0 {
		return false
	}
	return newDist(w.Latency).tail(0.99).Value <= limitUS &&
		float64(w.Drain)/1e3 <= limitUS
}

// rateLadder returns the fixed geometric ladder of offered rates, from lo
// up to at most hi, each step a factor step above the last.
func rateLadder(lo, hi, step float64) []float64 {
	var out []float64
	for r := lo; r <= hi*(1+1e-9); r *= step {
		out = append(out, math.Round(r))
	}
	return out
}

// searchLadder returns the index of the highest rung that passes,
// assuming passing is monotone in the rate, by bisection over the
// ladder; -1 when even the lowest rung fails. It probes each rung at
// most once.
func searchLadder(rungs int, pass func(i int) bool) int {
	lo, hi := -1, rungs
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
