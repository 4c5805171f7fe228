package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"insituviz/internal/cinemaserve"
	"insituviz/internal/cinemastore"
	"insituviz/internal/telemetry"
)

const (
	// serveSetupReps is how many times set-up is measured; it takes a few
	// milliseconds, so more repetitions steady its median.
	serveSetupReps = 21
	// serveSteps sizes the served store: an insitu_viz-shaped run of this
	// many steps, four frames per step.
	serveSteps = 96
	// cacheShare is the store-to-cache size ratio: the working set
	// exceeds the cache, so hits, misses and evictions all occur.
	cacheShare = 4
	// fixedRate is the offered rate (req/s) the fetch latencies are
	// reported at.
	fixedRate = 2000
	// windowRequests is the length of one fixed-rate window: enough for a
	// p99 with ten samples beyond it.
	windowRequests = 1000
	// latencyLimitUS is the tail-latency limit the rate ladder holds. On
	// a shared two-vCPU virtual machine a lone spinning thread is
	// descheduled some 30 times a second for 0.2 to 10 ms, which alone
	// puts any window's p99 at 1 to 4 ms whatever the rate; 5 ms leaves
	// the limit to queueing in the server.
	latencyLimitUS = 5000
	// lateLimitUS is how far behind schedule (p99) the generator may fall
	// before its window is invalid: beyond the latency limit, the window
	// cannot tell whether the server kept it.
	lateLimitUS = latencyLimitUS
	// tracedReplays is how many replay pairs the traced run makes: enough
	// for the overhead ratio and the Server.Frame percentiles, few enough
	// to keep the span file small.
	tracedReplays = 10
	// probeTries is how many valid windows a ladder rung gets to meet the
	// limit, so that one host stall does not fail a rate the server holds.
	probeTries = 3
	// replayRequests is the size of the closed-loop replay run_s times.
	replayRequests = 4000
	// probeSeconds and probeMin size one ladder probe.
	probeSeconds = 0.4
	probeMin     = 1000
)

// ladder is the fixed ladder of offered rates fetch_max_rps is read off.
var ladder = rateLadder(1000, 64000, 1.05)

// served is a mounted store and the server over it.
type served struct {
	st   *cinemastore.Store
	srv  *cinemaserve.Server
	reg  *telemetry.Registry
	half float64 // half the store's time step
}

// mountStore opens the store, mounts it in a fresh server with a cache
// of a quarter of the frame bytes, and warms the cache with the most
// popular frames, the first in index order: the serve workload's set-up.
func mountStore(cinemaDir string, tr *tracer) (*served, error) {
	s := &served{reg: telemetry.NewRegistry()}
	err := tr.call("cinemastore.open", 0, func() (err error) {
		s.st, err = cinemastore.Open(cinemaDir)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.call("cinemaserve.mount", 0, func() error {
		s.srv = cinemaserve.NewServer(cinemaserve.Config{CacheBytes: s.st.TotalBytes() / cacheShare, Telemetry: s.reg})
		return s.srv.Mount("run", s.st)
	})
	if err != nil {
		return nil, err
	}
	err = tr.call("cinemaserve.warmup", 0, func() error {
		for i := 0; i < s.st.Len(); i++ {
			if s.srv.CacheBytes()+s.st.EntryAt(i).Bytes > s.st.TotalBytes()/cacheShare {
				return nil
			}
			if _, _, err := s.srv.Frame("run", s.st.EntryAt(i).Key, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	times := s.st.Times("okubo_weiss", 0, 0)
	if len(times) < 2 {
		return nil, fmt.Errorf("served store has %d time steps", len(times))
	}
	s.half = (times[1] - times[0]) / 2
	return s, nil
}

// queries draws n queries of one phase stream.
func (s *served) queries(b *bench, stream int64, n int) []query {
	return zipfQueries(subSeed(b.seed, stream), s.st.Len(), n, s.half)
}

// request asks for q through Server.Frame, bypassing HTTP.
func (s *served) request(q query, a *answer) error {
	key := s.st.EntryAt(q.Entry).Key
	if q.Nearest {
		key.Time += q.Offset
	}
	data, e, err := s.srv.Frame("run", key, q.Nearest)
	if err != nil {
		return err
	}
	a.status, a.file, a.data = http.StatusOK, e.File, data
	return nil
}

// openWindow runs one open-loop window of n requests at rate through f,
// checking every answer, and reports whether the generator kept to its
// schedule.
func (b *bench) openWindow(s *served, stream int64, rate float64, n int, f fetcher) (window, bool) {
	dues := poissonSchedule(subSeed(b.seed, stream), n, rate)
	w, err := openLoop(dues, s.queries(b, stream, n), clientConns, f)
	b.ops(n, w.Failed)
	b.check(err == nil, "open loop at %.0f req/s: %v", rate, err)
	return w, newDist(w.Late).tail(0.99).Value <= lateLimitUS
}

// runServe measures serve_zipf: an untimed LiveRun commits an
// insitu_viz-shaped store, set-up mounts it, and closed-loop replays of
// Zipf key streams run over HTTP until the measuring time is up. The
// open-loop windows and the rate ladder run in the traced run.
func (b *bench) runServe() error {
	cinemaDir, err := b.prepareServed()
	if err != nil {
		return err
	}
	if b.traced {
		return b.traceServe(cinemaDir)
	}
	var setups series
	var s *served
	for i := 0; i < serveSetupReps; i++ {
		m := startMeter()
		if s, err = mountStore(cinemaDir, nil); err != nil {
			return err
		}
		setups.add(m.stop())
	}
	b.report("setup_s", setups, "s", "set-ups (open, mount, warm-up)")
	hs, err := serveHTTP(s.srv, s.st)
	if err != nil {
		return err
	}
	defer hs.close()
	base := s.reg.Snapshot()
	var walls, allocs, peaks series
	var fetches fetchSeries
	for i, start := 0, time.Now(); b.more(i, start, walls); i++ {
		qs := s.queries(b, 100+int64(i), replayRequests)
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fs, err := closedLoop(qs, clientConns, hs.fetcher())
		runtime.ReadMemStats(&m1)
		peak, perr := peakRSSMB()
		if perr != nil {
			return perr
		}
		b.ops(len(qs), fs.failed)
		b.check(err == nil, "replay: %v", err)
		walls.add(fs.busy, fs.steal)
		allocs.add(float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, fs.steal)
		peaks.add(peak, fs.steal)
		fetches.add(fs)
	}
	b.report("run_s", walls, "s", fmt.Sprintf("closed-loop replays of %d requests over %d connections (request time per connection)", replayRequests, clientConns))
	b.report("alloc_mb", allocs, "MB", "replays")
	b.report("peak_rss_mb", peaks, "MB", "replays")
	fetches.report(b, "replays")
	b.serveCounters(s.reg.Snapshot(), base)
	return nil
}

// prepareServed commits the served store with an untimed LiveRun and
// checks it, returning its directory.
func (b *bench) prepareServed() (string, error) {
	cfg := insituViz
	cfg.Steps = serveSteps
	prep := b.timedLiveRun(cfg, "store")
	if prep.err != nil {
		return "", fmt.Errorf("preparing the served store: %w", prep.err)
	}
	cinemaDir := filepath.Join(prep.dir, "cinema")
	st, err := b.checkStore(cinemaDir)
	if err != nil {
		return "", err
	}
	storeBytes, err := dirBytes(cinemaDir)
	if err != nil {
		return "", err
	}
	b.metrics["store_bytes"] = float64(storeBytes)
	b.note("store %d frames, %d frame bytes, cache budget %d bytes (1/%d)", st.Len(), st.TotalBytes(),
		st.TotalBytes()/cacheShare, cacheShare)
	return cinemaDir, nil
}

// serveCounters reports the server's own telemetry over a phase.
func (b *bench) serveCounters(now, base *telemetry.Snapshot) map[string]int64 {
	c := map[string]int64{}
	for _, name := range []string{"requests", "cache.hits", "cache.misses", "cache.evictions", "store.reads", "shed", "errors", "corrupt"} {
		c[name] = now.Counters[name] - base.Counters[name]
	}
	b.note("serve counters: %d requests, %d hits, %d misses (hit_ratio %.4g of %d lookups), %d store reads, %d evictions, %d shed, %d errors, %d corrupt",
		c["requests"], c["cache.hits"], c["cache.misses"], ratio(float64(c["cache.hits"]), float64(c["cache.hits"]+c["cache.misses"])),
		c["cache.hits"]+c["cache.misses"], c["store.reads"], c["cache.evictions"], c["shed"], c["errors"], c["corrupt"])
	b.check(c["errors"] == 0 && c["corrupt"] == 0, "server counted %d errors and %d corrupt frames", c["errors"], c["corrupt"])
	return c
}

// traceServe is serve_zipf's traced run. After set-up under spans, it
// alternates closed-loop replays through Server.Frame with and without a
// span per call (the spans give the per-request service time and the
// difference the tracing overhead), then measures the open loop over
// HTTP: fixed-rate windows and the rate-ladder search.
func (b *bench) traceServe(cinemaDir string) error {
	tr := newTracer()
	s, err := mountStore(cinemaDir, tr)
	if err != nil {
		return err
	}
	base := s.reg.Snapshot()
	untraced := fetcher{request: s.request, check: checkAnswer(s.st)}
	traced := fetcher{request: func(q query, a *answer) error {
		id := tr.begin("cinemaserve.frame", 0, tr.op())
		defer tr.end(id)
		return s.request(q, a)
	}, check: untraced.check}
	var tw, uw []float64
	start := time.Now()
	for i := int64(0); i < tracedReplays; i++ {
		qs := s.queries(b, 100+i, replayRequests)
		fs, err := closedLoop(qs, clientConns, untraced)
		b.ops(len(qs), fs.failed)
		b.check(err == nil, "replay: %v", err)
		uw = append(uw, fs.busy)
		fs, err = closedLoop(qs, clientConns, traced)
		b.ops(len(qs), fs.failed)
		b.check(err == nil, "traced replay: %v", err)
		tw = append(tw, fs.busy)
	}
	c := b.serveCounters(s.reg.Snapshot(), base)
	hs, err := serveHTTP(s.srv, s.st)
	if err != nil {
		return err
	}
	defer hs.close()
	b.measureOpenLoop(s, hs, start.Add(b.seconds*7/10), start.Add(b.seconds))
	b.traceReads(tr, s.st)
	if err := tr.writeFile(spansFile(b.workload)); err != nil {
		return err
	}
	ss := newSpanSet(tr.snapshot())
	frame := ss.times("cinemaserve.frame", false, false)
	m := b.metrics
	m["cinemaserve.frame_us_p50"] = frame.median() * 1e3
	m["cinemaserve.frame_us_p99"] = frame.tail(0.99).Value * 1e3
	m["cinemaserve.hit_ratio"] = ratio(float64(c["cache.hits"]), float64(c["cache.hits"]+c["cache.misses"]))
	m["cinemaserve.store_reads"] = float64(c["store.reads"])
	m["cinemaserve.evictions"] = float64(c["cache.evictions"])
	m["cinemaserve.shed"] = float64(c["shed"])
	b.note("cinemaserve.frame %v ms", frame.tail(0.99))
	b.setOverhead(tw, uw, "replay")
	return nil
}

// measureOpenLoop measures the open loop over HTTP: fixed-rate windows until
// fixedEnd, then rate-ladder searches until ladderEnd (at least one of
// each). Latency is timed from each request's due time; a window whose
// generator fell behind schedule is reported as invalid, not measured.
func (b *bench) measureOpenLoop(s *served, hs *httpStore, fixedEnd, ladderEnd time.Time) {
	var lat, late []float64
	invalid := 0
	for i := int64(0); i == 0 || time.Now().Before(fixedEnd); i++ {
		w, valid := b.openWindow(s, 200+i, fixedRate, windowRequests, hs.fetcher())
		late = append(late, w.Late...)
		if !valid {
			invalid++
			continue
		}
		lat = append(lat, w.Latency...)
	}
	// With no valid window there is no latency to report: the run is
	// flagged rather than reporting 0, which would read as a perfect
	// result.
	b.check(len(lat) > 0, "open loop at %d req/s: all %d windows fell behind schedule, latencies invalid", fixedRate, invalid)
	d, ld := newDist(lat), newDist(late)
	b.metrics["load.fixed_p50_us"] = d.median()
	b.metrics["load.fixed_p99_us"] = d.tail(0.99).Value
	b.metrics["load.late_us_p99"] = ld.tail(0.99).Value
	b.note("open loop at %d req/s: latency from due time p50 %.6g µs, %v µs over %d valid windows of %d requests (%d invalid); generator lateness %v µs",
		fixedRate, d.median(), d.tail(0.99), len(lat)/windowRequests, windowRequests, invalid, ld.tail(0.99))

	var maxRates []float64
	for j := int64(0); j == 0 || time.Now().Before(ladderEnd); j++ {
		probes := 0
		top := searchLadder(len(ladder), func(k int) bool {
			probes++
			rate := ladder[k]
			n := max(probeMin, int(rate*probeSeconds))
			for try := int64(0); try < probeTries; try++ {
				w, valid := b.openWindow(s, 1000*(j+1)+100*try+int64(k), rate, n, hs.fetcher())
				if valid && w.meets(latencyLimitUS) {
					return true
				}
			}
			return false
		})
		rate := 0.0
		if top >= 0 {
			rate = ladder[top]
		}
		maxRates = append(maxRates, rate)
		b.note("ladder search %d: %.0f req/s after %d probes (p99 <= %d µs, no backlog)", j, rate, probes, latencyLimitUS)
	}
	b.metrics["load.ladder_max_rps"] = newDist(maxRates).median()
}
