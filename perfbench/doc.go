// Command perfbench is the repository's benchmark: one process that runs
// a workload of the coupled simulation-visualization stack, checks its
// outputs, and prints its metrics. BENCHMARK.json at the repository root
// lists the workloads and metrics; run.sh builds this package and runs it:
//
//	bash perfbench/run.sh --workload insitu_viz --seed 1 --seconds 20 --trace 0
//
// Every result line is prefixed with the workload; the first names the
// host (CPU model, NumCPU, GOMAXPROCS, kernel, Go version, and the
// filesystem the stores are written to), and the last is the result as
// one JSON object. The command exits 1, after printing that object, when
// an output check fails, and exits 1 without printing it when a workload
// cannot be run at all.
//
// # Workloads
//
// All four run in one process at the host's GOMAXPROCS. The live
// workloads are deterministic in their configuration; the seed drives
// serve_zipf's key stream and arrival times.
//
//   - post_sim: LiveRun post-processing, 10242 cells, 96 steps sampled
//     every 24, 192x96 images. Solver-bound; the only netCDF dump and
//     readback traffic (pio, ncfile) and the largest mesh build.
//   - insitu_viz: LiveRun in situ, 642 cells, 64 steps all sampled, two
//     ortho views and the eddy-core image: four frames a step. Bound by
//     rendering, PNG encoding and store writes.
//   - transit_viz: insitu_viz with the tcp transport to one in-process
//     intransit.Worker on 127.0.0.1:0 sharing the output directory, flate
//     codec. Its store must be byte-identical to insitu_viz's.
//   - serve_zipf: an untimed insitu_viz-shaped LiveRun of 96 steps (384
//     frames) commits a store; cinemaserve mounts it with a cache of a
//     quarter of its frame bytes. Queries are Zipf(1.2) over the entries
//     in index order, as cmd/cinemaload draws them, and alternate
//     cinemaload's two modes, exact and nearest=1. The repository holds no
//     measured traffic mix, so the even split is a choice, not a
//     measurement.
//
// # End-to-end metrics (--trace 0)
//
// Every metric is reported on every workload, as the median over the
// repetitions a run makes in its measuring time. A repetition during
// which the hypervisor stole more than 5% of the machine's CPU time
// (/proc/stat) is left out: on a shared virtual machine neighbours' load
// comes and goes in stretches of seconds, and a run it overlaps is
// stretched by about twice the stolen share. While fewer than three
// repetitions were left alone the run goes on, for up to ten seconds past
// its measuring time, and then uses the three least disturbed.
//
//   - setup_s: live workloads time LiveRun's set-up calls from outside
//     (mesh, model and initial state, rasterizer, partition, image-set
//     renderer, and starting the viz worker for transit_viz); serve_zipf
//     times cinemastore.Open, NewServer and Mount, and the cache warm-up.
//   - run_s: live workloads, the wall time of one LiveRun call, each into
//     a fresh directory after a sync(2) has written back what earlier calls
//     left dirty; serve_zipf, one closed-loop replay of 4000 queries over
//     HTTP on two connections, as the time each connection spent in
//     requests (the sum of the latencies over the number of connections),
//     so that the untimed checks of the answers stay out of it.
//   - store_bytes: the bytes a live run leaves in its output directory
//     (frames, index, manifest and, for post_sim, the netCDF dumps); for
//     serve_zipf, the served store.
//   - alloc_mb: runtime TotalAlloc over one LiveRun call or one replay.
//   - peak_rss_mb: the peak resident set during one LiveRun call or one
//     replay. Before each, the freed heap is handed back to the kernel and
//     the high-water mark is reset (/proc/self/clear_refs); after it,
//     VmHWM is read from /proc/self/status.
//   - fetch_p50_us, fetch_p99_us, fetch_max_rps: closed-loop frame
//     fetches through cinemaserve's HTTP handler on two connections, each
//     answer checked against its index digest: per run, the median, the
//     p99 (or the highest percentile with ten samples beyond it) and the
//     throughput (requests over the run's request time, as for run_s). A
//     latency ends when the answer has been read; checking it is untimed. Live workloads read back every frame of the store each
//     LiveRun call committed, with the frame cache off, in passes until
//     2000 requests; serve_zipf measures its replays.
//
// Operations are counted in the result's attempted and failed fields:
// frames planned and not committed (a LiveRun call that fails counts all
// of its frames), fetches that did not return the right bytes with
// status 200 (a 503 included), and frames that did not read back.
//
// # Per-layer metrics (--trace 1)
//
// The traced run alternates an untraced LiveRun call with runDriver,
// which makes LiveRun's public calls in the same order under spans kept
// in memory and written to .perfbench/spans-<workload>.json at the end.
// The driver's store, and for post_sim its netCDF dumps, must be
// byte-identical to LiveRun's. Times named
// _ms without a percentile are the median over samples of the layer's
// self time in one sample. A layer a workload does not exercise reports
// 0. Each layer and the end-to-end metric it should move:
//
//	mesh         build_s, cells                       setup_s on post_sim (slightly insitu_viz, transit_viz)
//	ocean        step p50/p99, diag, serial p50,      run_s on post_sim
//	             parallel_speedup (serial/parallel)
//	workpool     submitted, inline_ratio, steals,     run_s on post_sim
//	             parks (workpool.Snapshot around the run)
//	catalyst     coprocess_ms (self), copied_bytes    run_s on insitu_viz
//	eddy         detect_ms, track_ms, count           run_s on insitu_viz, transit_viz
//	vizpipe      execute_ms                           run_s on insitu_viz
//	render       raster, composite, ortho, encode,    run_s, store_bytes on insitu_viz;
//	             frames, png_bytes_per_frame          store_bytes on transit_viz
//	live         sample p50/p99 (solver blocked)      run_s on insitu_viz, transit_viz
//	cinemastore  put p50/p99, commit, files, adopt    run_s on insitu_viz (put, commit), transit_viz (adopt)
//	cinemastore  read p50/p99, verify p50             fetch_* on every workload (live readbacks miss the cache)
//	pio, ncfile  gather, write, read, bytes           run_s, store_bytes on post_sim
//	intransit    send p50/p99, wire_bytes,            run_s on transit_viz only
//	             wire_ratio (wire/raw), reconnects
//	cinemaserve  frame p50/p99 (Server.Frame),        fetch_*, run_s on serve_zipf; fetch_* on the
//	             hit_ratio, store_reads, evictions, shed  live workloads through the HTTP handler
//	load         late p99, fixed-rate p50/p99,        validity and open-loop view of serve_zipf
//	             ladder_max_rps
//	harness      trace.overhead_ratio                 traced / untraced wall time, both printed
//
// Where a workload is not named the prediction is no change. alloc_mb can
// move wherever a layer allocates.
//
// serve_zipf's traced run also measures the open loop over HTTP: fixed-
// rate windows of 1000 requests at 2000 req/s timed from each request's
// due time (a window whose generator ran more than the latency limit
// behind at p99 is reported invalid, not measured, and a run left with
// no valid window fails its check), then bisection of a fixed rate
// ladder for the highest rate whose p99 stays within 5 ms with no
// backlog left, each rung allowed three windows. These are
// per-layer metrics rather than end-to-end ones because on a shared
// two-vCPU virtual machine the process is descheduled for milliseconds
// many times a second, and their run-to-run spread is larger than any
// bound a regression gate could use.
package main
