package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"insituviz"
	"insituviz/internal/cinemaserve"
	"insituviz/internal/cinemastore"
	"insituviz/internal/intransit"
	"insituviz/internal/ncfile"
	"insituviz/internal/ocean"
	"insituviz/internal/provenance"
	"insituviz/internal/telemetry"
)

// Live workload shapes. Every LiveConfig field that has a default is set
// explicitly, so LiveRun and the traced driver see the same values.
var (
	postSim = insituviz.LiveConfig{
		Mode: insituviz.PostProcessing, MeshSubdivisions: 5, Steps: 96, SampleEverySteps: 24,
		ImageWidth: 192, ImageHeight: 96, RenderRanks: 4, Viscosity: 2e5, IORanks: 8,
	}
	insituViz = insituviz.LiveConfig{
		Mode: insituviz.InSitu, MeshSubdivisions: 3, Steps: 64, SampleEverySteps: 1,
		ImageWidth: 192, ImageHeight: 96, RenderRanks: 4, Viscosity: 2e5, IORanks: 8,
		OrthoViews: 2, EddyCoreImages: true,
	}
	transitViz = func() insituviz.LiveConfig {
		c := insituViz
		c.Transport, c.TransitCodec = "tcp", "flate"
		return c
	}()
)

const (
	// setupReps is the fewest times set-up is measured; setup_s is the
	// median.
	setupReps = 11
	// minReps is the fewest measured LiveRun calls, however long they take.
	minReps = 3
	// readbackRequests is the least number of frame fetches one readback
	// makes: a p99 with twenty samples beyond it.
	readbackRequests = 2000
	// clientConns is how many HTTP connections a load generator uses.
	clientConns = 2
	// maxExtension bounds how long a run goes on past its measuring time
	// waiting for repetitions the hypervisor left alone.
	maxExtension = 10 * time.Second
)

// liveRep is one LiveRun call and what it left behind.
type liveRep struct {
	dir     string
	res     *insituviz.LiveResult
	wall    float64 // s
	steal   float64 // share of the machine's CPU time stolen during the call
	allocMB float64
	peakMB  float64 // peak resident set during the call
	err     error
}

// worker is an in-process in-transit viz worker on 127.0.0.1:0.
type worker struct {
	w      *intransit.Worker
	served chan error
}

func startWorker(cinemaDir string) (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w, err := intransit.NewWorker(ln, intransit.WorkerConfig{OutDir: cinemaDir, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		ln.Close()
		return nil, err
	}
	wk := &worker{w: w, served: make(chan error, 1)}
	go func() { wk.served <- w.Serve() }()
	return wk, nil
}

// stop closes the worker and waits for its accept loop to exit.
func (wk *worker) stop() error {
	wk.w.Close()
	return <-wk.served
}

// withWorker runs fn with cfg pointed at the output directory dir and,
// for the tcp transport, a fresh viz worker writing into dir's store. A
// worker dedups samples by sequence number, so each run gets its own.
func withWorker(cfg insituviz.LiveConfig, dir string, fn func(insituviz.LiveConfig) error) error {
	cfg.OutputDir = dir
	if cfg.Transport != "tcp" {
		return fn(cfg)
	}
	wk, err := startWorker(filepath.Join(dir, "cinema"))
	if err != nil {
		return err
	}
	cfg.VizWorkers = []string{wk.w.Addr()}
	err = fn(cfg)
	if serr := wk.stop(); err == nil {
		err = serr
	}
	return err
}

// timedLiveRun makes one LiveRun call into a fresh directory, timing it
// and measuring its allocations and peak resident set. The viz worker is
// started and stopped outside the timed section.
func (b *bench) timedLiveRun(cfg insituviz.LiveConfig, name string) liveRep {
	dir, err := b.dir(name)
	if err != nil {
		return liveRep{err: err}
	}
	rep := liveRep{dir: dir}
	rep.err = withWorker(cfg, dir, func(cfg insituviz.LiveConfig) error {
		// Write back what earlier runs left dirty, so this one does not
		// pay for it.
		syscall.Sync()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		m := startMeter()
		res, err := insituviz.LiveRun(cfg)
		rep.wall, rep.steal = m.stop()
		runtime.ReadMemStats(&m1)
		rep.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		rep.res = res
		if err != nil {
			return err
		}
		rep.peakMB, err = peakRSSMB()
		return err
	})
	return rep
}

// measureSetup times LiveRun's set-up calls once, plus starting the viz
// worker for the tcp transport.
func (b *bench) measureSetup(cfg insituviz.LiveConfig, times *series) error {
	dir, err := b.dir("setup")
	if err != nil {
		return err
	}
	m := startMeter()
	if _, err := newLiveStack(cfg, telemetry.NewRegistry(), nil, 0); err != nil {
		return err
	}
	if cfg.Transport == "tcp" {
		wk, err := startWorker(dir)
		if err != nil {
			return err
		}
		if err := wk.stop(); err != nil {
			return err
		}
	}
	times.add(m.stop())
	return nil
}

// storeFiles reads every regular file of a Cinema directory.
func storeFiles(cinemaDir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(cinemaDir)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(cinemaDir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	return out, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// checkStore opens a committed store and checks what cmd/cinemaverify
// checks short of re-reading frames (the readback does that): the
// manifest chain replays and its head pins the index's Merkle root,
// frame count and bytes.
func (b *bench) checkStore(cinemaDir string) (*cinemastore.Store, error) {
	st, err := cinemastore.Open(cinemaDir)
	if err != nil {
		return nil, err
	}
	recs, err := provenance.ReadManifest(filepath.Join(cinemaDir, provenance.ManifestFile))
	if !b.check(err == nil && len(recs) > 0, "%s: manifest does not replay: %v", cinemaDir, err) {
		return st, nil
	}
	head := recs[len(recs)-1]
	root, ok := cinemastore.EntriesRoot(st.Entries())
	b.check(ok && head.Root == root.Hex() && head.Frames == st.Len() && head.Bytes == st.TotalBytes(),
		"%s: manifest head (root %s, %d frames, %d bytes) does not match the index (%d frames, %d bytes)",
		cinemaDir, head.Root, head.Frames, head.Bytes, st.Len(), st.TotalBytes())
	return st, nil
}

// checkDumps reads every netCDF dump of a post-processing run back.
func (b *bench) checkDumps(dir string, samples, cells int) {
	paths, _ := filepath.Glob(filepath.Join(dir, "raw", "*.nc"))
	b.check(len(paths) == samples, "%s: %d dumps, want %d", dir, len(paths), samples)
	for _, p := range paths {
		f, err := ncfile.ReadFile(p)
		var field []float64
		if err == nil {
			field, err = dumpField(f)
		}
		b.check(err == nil && len(field) == cells, "%s: dump does not read back (%d values): %v", p, len(field), err)
	}
}

// fetchStats is one closed-loop readback or replay.
type fetchStats struct {
	lat []float64 // µs per successful request
	// busy is the time the clients spent in requests, summed over the
	// successful ones and divided by the number of clients: the run's
	// wall time less the untimed checks of the answers.
	busy   float64 // s
	steal  float64 // share of the machine's CPU time stolen meanwhile
	failed int
}

// fetchSeries collects the fetch metrics of repeated closed-loop runs:
// each run's median and tail latency and its throughput.
type fetchSeries struct {
	p50, p99, rps series
	n             int // requests per run
}

func (f *fetchSeries) add(fs fetchStats) {
	d := newDist(fs.lat)
	f.p50.add(d.median(), fs.steal)
	f.p99.add(d.tail(0.99).Value, fs.steal)
	f.rps.add(float64(len(fs.lat))/fs.busy, fs.steal)
	f.n = len(fs.lat)
}

// report sets the fetch metrics to the medians over the runs.
func (f *fetchSeries) report(b *bench, runs string) {
	of := fmt.Sprintf("closed-loop %s of %d requests over %d connections", runs, f.n, clientConns)
	b.report("fetch_p50_us", f.p50, "us", of)
	b.report("fetch_p99_us", f.p99, "us", fmt.Sprintf("%s (p%.0f each)", of, tailQ(f.n, 0.99)*100))
	b.report("fetch_max_rps", f.rps, "req/s", of)
}

// httpStore serves a store through cinemaserve's HTTP handler on
// 127.0.0.1:0, as cmd/cinemaserve does.
type httpStore struct {
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	st     *cinemastore.Store
}

func serveHTTP(srv *cinemaserve.Server, st *cinemastore.Store) (*httpStore, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &httpStore{
		srv:    &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String() + "/run/frame?",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true,
		}},
		st: st,
	}
	go func() { hs.served <- hs.srv.Serve(ln) }()
	return hs, nil
}

// close stops the server and waits for it.
func (hs *httpStore) close() {
	hs.client.CloseIdleConnections()
	hs.srv.Close()
	<-hs.served
}

// url is the frame query for q.
func (hs *httpStore) url(q query) string {
	e := hs.st.EntryAt(q.Entry)
	t := e.Time
	if q.Nearest {
		t += q.Offset
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := "var=" + e.Variable + "&time=" + f(t) + "&phi=" + f(e.Phi) + "&theta=" + f(e.Theta)
	if q.Nearest {
		u += "&nearest=1"
	}
	return hs.base + u
}

// request makes one request and reads the answer.
func (hs *httpStore) request(q query, a *answer) error {
	resp, err := hs.client.Get(hs.url(q))
	if err != nil {
		return err
	}
	a.buf.Reset()
	_, err = a.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	a.status, a.file, a.data = resp.StatusCode, resp.Header.Get("X-Cinema-File"), a.buf.Bytes()
	return err
}

// fetcher fetches frames over HTTP, checking each answer against st.
func (hs *httpStore) fetcher() fetcher {
	return fetcher{request: hs.request, check: checkAnswer(hs.st)}
}

// checkAnswer returns the check of an answer from st: status 200, the
// frame asked for (for a nearest query, the one its time snaps to), and
// bytes whose SHA-256 is that frame's index digest.
func checkAnswer(st *cinemastore.Store) func(q query, a *answer) error {
	return func(q query, a *answer) error {
		if a.status != http.StatusOK {
			return fmt.Errorf("status %d: %s", a.status, bytes.TrimSpace(a.data))
		}
		want := st.EntryAt(q.Entry)
		if a.file != want.File {
			return fmt.Errorf("asked for %s, got %s", want.File, a.file)
		}
		if sum := sha256.Sum256(a.data); hex.EncodeToString(sum[:]) != want.Digest {
			return fmt.Errorf("%s: frame digest does not match the index", want.File)
		}
		return nil
	}
}

// readback fetches every frame of a committed store through cinemaserve
// over HTTP, with the frame cache off so each request reads and verifies
// from the store, repeating passes until readbackRequests is reached.
// The first pass is the check that every frame verifies.
func (b *bench) readback(st *cinemastore.Store) (fetchStats, error) {
	srv := cinemaserve.NewServer(cinemaserve.Config{CacheBytes: -1})
	if err := srv.Mount("run", st); err != nil {
		return fetchStats{}, err
	}
	hs, err := serveHTTP(srv, st)
	if err != nil {
		return fetchStats{}, err
	}
	defer hs.close()
	var qs []query
	for len(qs) < readbackRequests {
		for i := 0; i < st.Len(); i++ {
			qs = append(qs, query{Entry: i})
		}
	}
	fs, err := closedLoop(qs, clientConns, hs.fetcher())
	b.ops(len(qs), fs.failed)
	b.check(err == nil, "readback of %s: %v", st.Dir(), err)
	return fs, nil
}

// runLive measures a live workload: set-up, then LiveRun calls into fresh
// directories until the measuring time is up, each followed (untimed) by
// its output checks and a readback of the committed store.
func (b *bench) runLive(cfg insituviz.LiveConfig) error {
	// The reference run warms the process up and fixes what every later
	// run must reproduce. For the tcp transport it is the in-process run
	// of the same shape, whose store the tcp runs must match byte for
	// byte.
	refCfg := cfg
	refCfg.Transport, refCfg.TransitCodec = "", ""
	ref := b.timedLiveRun(refCfg, "ref")
	if ref.err != nil {
		return fmt.Errorf("reference run: %w", ref.err)
	}
	refStore, err := storeFiles(filepath.Join(ref.dir, "cinema"))
	if err != nil {
		return err
	}
	refSt, err := b.checkStore(filepath.Join(ref.dir, "cinema"))
	if err != nil {
		return err
	}
	expectFrames := refSt.Len()
	samples := cfg.Steps / cfg.SampleEverySteps
	if cfg.Mode == insituviz.PostProcessing {
		b.check(expectFrames == samples, "post-processing run committed %d frames for %d samples", expectFrames, samples)
	}
	b.check(expectFrames > 0 && ref.res.Images == expectFrames, "reference run committed %d frames, reported %d",
		expectFrames, ref.res.Images)
	if b.traced {
		return b.traceLive(cfg, refStore)
	}

	// Set-ups are measured one per repetition, so that they sample the
	// same stretch of time as the runs.
	var setups, wall, alloc, peak, storeBytes series
	var fetches fetchSeries
	for rep, start := 0, time.Now(); b.more(rep, start, wall); rep++ {
		if err := b.measureSetup(cfg, &setups); err != nil {
			return err
		}
		r := b.timedLiveRun(cfg, "run")
		if !b.check(r.err == nil, "LiveRun: %v", r.err) {
			// Nothing of a failed run is committed: all its frames failed.
			b.ops(expectFrames, expectFrames)
			continue
		}
		wall.add(r.wall, r.steal)
		alloc.add(r.allocMB, r.steal)
		peak.add(r.peakMB, r.steal)
		n, err := b.checkLiveOutput(cfg, r, refStore, expectFrames, samples)
		if err != nil {
			return err
		}
		storeBytes.add(float64(n), 0)
		st, err := cinemastore.Open(filepath.Join(r.dir, "cinema"))
		if err != nil {
			return err
		}
		fs, err := b.readback(st)
		if err != nil {
			return err
		}
		fetches.add(fs)
		if err := os.RemoveAll(r.dir); err != nil {
			return err
		}
	}
	for len(setups.vals) < setupReps {
		if err := b.measureSetup(cfg, &setups); err != nil {
			return err
		}
	}
	if len(wall.vals) == 0 {
		return nil
	}
	b.report("setup_s", setups, "s", "set-ups")
	b.report("run_s", wall, "s", "LiveRun calls")
	b.report("alloc_mb", alloc, "MB", "LiveRun calls")
	b.report("peak_rss_mb", peak, "MB", "LiveRun calls")
	b.report("store_bytes", storeBytes, "B", "runs")
	fetches.report(b, "readbacks")
	b.note("%d frames per run, %d samples", expectFrames, samples)
	return nil
}

// report sets metric name to the median of one value per repetition,
// over the repetitions the hypervisor left alone, and prints the spread
// it came with.
func (b *bench) report(name string, s series, unit, of string) {
	xs := s.kept()
	d := newDist(xs)
	b.metrics[name] = d.median()
	sp, _ := spread(xs)
	b.note("%s median %.6g %s over %d of %d %s (min %.6g max %.6g, quartile spread %.3g of median)",
		name, d.median(), unit, len(d), len(s.vals), of, d[0], d[len(d)-1], sp)
}

// more reports whether a measuring loop goes on: until the measuring time
// is up and at least minReps repetitions are made, and past that, for up
// to maxExtension more, until minKept of them were left alone by the
// hypervisor.
func (b *bench) more(rep int, start time.Time, s series) bool {
	el := time.Since(start)
	return rep < minReps || el < b.seconds || (!s.enough() && el < b.seconds+maxExtension)
}

// checkLiveOutput checks one measured run's outputs and accounts its
// frames, returning the bytes it left in its output directory.
func (b *bench) checkLiveOutput(cfg insituviz.LiveConfig, r liveRep, refStore map[string][]byte, expectFrames, samples int) (int64, error) {
	cinemaDir := filepath.Join(r.dir, "cinema")
	st, err := b.checkStore(cinemaDir)
	if err != nil {
		return 0, err
	}
	committed := st.Len()
	b.ops(expectFrames, r.res.DroppedFrames+max(expectFrames-committed, 0))
	b.check(committed == expectFrames && r.res.Images == committed && r.res.DroppedFrames == 0,
		"%d frames committed, %d reported, %d dropped; want %d", committed, r.res.Images, r.res.DroppedFrames, expectFrames)
	files, err := storeFiles(cinemaDir)
	if err != nil {
		return 0, err
	}
	// Every run of a workload commits the same store as the reference
	// run; for the tcp transport that is the in-process store, the
	// transport-transparency contract.
	b.check(sameFiles(files, refStore), "store differs from the reference run's")
	if cfg.Mode == insituviz.PostProcessing {
		b.checkDumps(r.dir, samples, 10*(1<<(2*cfg.MeshSubdivisions))+2)
	}
	return dirBytes(r.dir)
}

func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			return false
		}
	}
	return true
}

// serialSteps times n solver steps with Workers: -1 on a copy of state:
// the serial baseline the parallel speed-up is measured against.
func serialSteps(res *driverResult, viscosity float64, n int) ([]float64, error) {
	model, err := ocean.NewModel(res.mesh, ocean.Config{Viscosity: viscosity, Workers: -1})
	if err != nil {
		return nil, err
	}
	state := res.state.Clone()
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := model.Step(state, res.dt); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out, nil
}

// spansFile is where a traced run leaves its spans, relative to the
// checkout; each traced run of a workload overwrites it.
func spansFile(workload string) string {
	return filepath.Join(".perfbench", "spans-"+workload+".json")
}

// traceLive is the traced run of a live workload. It alternates an
// untraced LiveRun call with the traced driver until the measuring time
// is up, checks that both commit the reference store, and derives the
// per-layer metrics from the driver's spans.
func (b *bench) traceLive(cfg insituviz.LiveConfig, refStore map[string][]byte) error {
	tr := newTracer()
	var untraced, traced []float64
	var last *driverResult
	lastDir := ""
	expectFrames := len(refStore) - 2 // the index and the manifest are not frames
	samples := cfg.Steps / cfg.SampleEverySteps
	deadline := time.Now().Add(b.seconds)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		u := b.timedLiveRun(cfg, "run")
		if !b.check(u.err == nil, "LiveRun: %v", u.err) {
			b.ops(expectFrames, expectFrames)
			continue
		}
		untraced = append(untraced, u.wall)
		if _, err := b.checkLiveOutput(cfg, u, refStore, expectFrames, samples); err != nil {
			return err
		}
		var raw map[string][]byte
		if cfg.Mode == insituviz.PostProcessing {
			r, err := storeFiles(filepath.Join(u.dir, "raw"))
			if err != nil {
				return err
			}
			raw = r
		}
		if err := os.RemoveAll(u.dir); err != nil {
			return err
		}

		dir, err := b.dir(fmt.Sprintf("traced%d", rep))
		if err != nil {
			return err
		}
		var res *driverResult
		err = withWorker(cfg, dir, func(cfg insituviz.LiveConfig) error {
			syscall.Sync()
			runtime.GC()
			t0 := time.Now()
			var err error
			res, err = runDriver(cfg, tr)
			traced = append(traced, time.Since(t0).Seconds())
			return err
		})
		if !b.check(err == nil, "traced driver: %v", err) {
			b.ops(expectFrames, expectFrames)
			continue
		}
		files, err := storeFiles(filepath.Join(dir, "cinema"))
		if err != nil {
			return err
		}
		b.ops(expectFrames, max(expectFrames-res.frames, 0))
		b.check(bytes.Equal(files[cinemastore.IndexFile], refStore[cinemastore.IndexFile]),
			"traced driver's index differs from LiveRun's")
		b.check(sameFiles(files, refStore), "traced driver's store differs from LiveRun's")
		if raw != nil {
			// The ncfile metrics describe the driver's dumps, so they must
			// be LiveRun's too.
			dumps, err := storeFiles(filepath.Join(dir, "raw"))
			if err != nil {
				return err
			}
			b.check(sameFiles(dumps, raw), "traced driver's netCDF dumps differ from LiveRun's")
		}
		if lastDir != "" {
			if err := os.RemoveAll(lastDir); err != nil {
				return err
			}
		}
		last, lastDir = res, dir
	}
	if last == nil {
		return nil
	}
	st, err := b.checkStore(filepath.Join(lastDir, "cinema"))
	if err != nil {
		return err
	}
	b.traceReads(tr, st)
	serial, err := serialSteps(last, cfg.Viscosity, 10)
	if err != nil {
		return err
	}
	if err := tr.writeFile(spansFile(b.workload)); err != nil {
		return err
	}
	ss := newSpanSet(tr.snapshot())
	m := b.metrics
	m["mesh.build_s"] = ss.times("mesh.build", false, false).median() / 1e3
	m["mesh.cells"] = float64(last.mesh.NCells())
	step := ss.times("ocean.step", false, false)
	m["ocean.step_ms_p50"] = step.median()
	m["ocean.step_ms_p99"] = step.tail(0.99).Value
	m["ocean.diag_ms"] = ss.times("ocean.diag", true, false).median()
	sd := newDist(serial)
	m["ocean.step_serial_ms_p50"] = sd.median()
	m["ocean.parallel_speedup"] = ratio(sd.median(), step.median())
	b.note("ocean.step %v ms; serial %v ms; parallel_speedup %.4g = serial p50 / parallel p50",
		step.tail(0.99), sd.tail(0.5), m["ocean.parallel_speedup"])
	p := last.pool
	m["workpool.submitted"] = float64(p.Submitted)
	m["workpool.inline_ratio"] = ratio(float64(p.Inline), float64(p.Submitted+p.Inline))
	m["workpool.steals"] = float64(p.Steals)
	m["workpool.parks"] = float64(p.Parks)
	b.note("workpool.inline_ratio %.4g = %d inline of %d chunks", m["workpool.inline_ratio"], p.Inline, p.Submitted+p.Inline)
	m["catalyst.coprocess_ms"] = ss.times("catalyst.coprocess", true, false).median()
	m["catalyst.copied_bytes"] = float64(last.copied)
	m["eddy.detect_ms"] = ss.times("eddy.detect", true, false).median()
	m["eddy.track_ms"] = ss.times("eddy.track", true, false).median()
	m["eddy.count"] = float64(last.eddies)
	m["vizpipe.execute_ms"] = ss.times("vizpipe.execute", true, false).median()
	m["render.raster_ms"] = ss.times("render.raster", true, false).median()
	m["render.composite_ms"] = ss.times("render.composite", true, false).median()
	m["render.ortho_ms"] = ss.times("render.ortho", true, false).median()
	m["render.encode_ms"] = ss.times("render.encode", true, false).median()
	m["render.frames"] = float64(last.frames)
	m["render.png_bytes_per_frame"] = ratio(float64(last.pngBytes), float64(last.frames))
	sample := ss.times("live.sample", true, true)
	m["live.sample_ms_p50"] = sample.median()
	m["live.sample_ms_p99"] = sample.tail(0.99).Value
	b.note("live.sample %v ms per sample", sample.tail(0.99))
	put := ss.times("cinemastore.put", false, false)
	m["cinemastore.put_ms_p50"] = put.median()
	m["cinemastore.put_ms_p99"] = put.tail(0.99).Value
	b.note("cinemastore.put %v ms", put.tail(0.99))
	m["cinemastore.commit_ms"] = ss.times("cinemastore.commit", false, false).median()
	m["cinemastore.files"] = float64(last.cinemaFiles)
	m["cinemastore.adopt_ms"] = ss.times("cinemastore.adopt", true, false).median()
	m["pio.gather_ms"] = ss.times("pio.gather", true, false).median()
	m["ncfile.write_ms"] = ss.times("ncfile.write", true, false).median()
	m["ncfile.read_ms"] = ss.times("ncfile.read", true, false).median()
	m["ncfile.bytes"] = float64(last.ncBytes)
	send := ss.times("intransit.send", false, false)
	m["intransit.send_ms_p50"] = send.median()
	m["intransit.send_ms_p99"] = send.tail(0.99).Value
	m["intransit.wire_bytes"] = float64(last.wireBytes)
	m["intransit.wire_ratio"] = ratio(float64(last.wireBytes), float64(last.rawBytes))
	m["intransit.reconnects"] = float64(last.reconnects)
	if cfg.Transport == "tcp" {
		b.note("intransit.send %v ms; wire_ratio %.4g = %d wire / %d raw bytes", send.tail(0.99),
			m["intransit.wire_ratio"], last.wireBytes, last.rawBytes)
	}
	b.setOverhead(traced, untraced, "run_s")
	return nil
}

// setOverhead reports traced wall time over the untraced wall time of
// the same work, with both values.
func (b *bench) setOverhead(traced, untraced []float64, what string) {
	t, u := newDist(traced).median(), newDist(untraced).median()
	b.metrics["trace.overhead_ratio"] = ratio(t, u)
	b.note("trace.overhead_ratio %.4g = traced %.6g s / untraced %s %.6g s (medians of %d and %d)",
		ratio(t, u), t, what, u, len(traced), len(untraced))
}

// traceReads times Store.ReadFrameAt and Entry.VerifyFrame over every
// frame of st, in passes until readbackRequests reads are made.
func (b *bench) traceReads(tr *tracer, st *cinemastore.Store) {
	for n := 0; n < readbackRequests; {
		for i := 0; i < st.Len(); i, n = i+1, n+1 {
			op := tr.op()
			id := tr.begin("cinemastore.read", 0, op)
			data, err := st.ReadFrameAt(i)
			tr.end(id)
			if err == nil {
				id = tr.begin("cinemastore.verify", 0, op)
				err = st.EntryAt(i).VerifyFrame(data)
				tr.end(id)
			}
			b.ops(1, 0)
			if !b.check(err == nil, "read back %s: %v", st.EntryAt(i).File, err) {
				b.ops(0, 1)
			}
		}
	}
	ss := newSpanSet(tr.snapshot())
	read := ss.times("cinemastore.read", false, false)
	verify := ss.times("cinemastore.verify", false, false)
	b.metrics["cinemastore.read_us_p50"] = read.median() * 1e3
	b.metrics["cinemastore.read_us_p99"] = read.tail(0.99).Value * 1e3
	b.metrics["cinemastore.verify_us_p50"] = verify.median() * 1e3
	b.note("cinemastore.read %v ms, verify %v ms", read.tail(0.99), verify.tail(0.5))
}
