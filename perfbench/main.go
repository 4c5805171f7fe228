package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported on every
// workload with tracing off (see doc.go for each one's definition per
// workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"store_bytes", "B"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"fetch_p50_us", "us"},
	{"fetch_p99_us", "us"},
	{"fetch_max_rps", "req/s"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"mesh.build_s", "s"},
	{"mesh.cells", "count"},
	{"ocean.step_ms_p50", "ms"},
	{"ocean.step_ms_p99", "ms"},
	{"ocean.diag_ms", "ms"},
	{"ocean.step_serial_ms_p50", "ms"},
	{"ocean.parallel_speedup", "ratio"},
	{"workpool.submitted", "count"},
	{"workpool.inline_ratio", "ratio"},
	{"workpool.steals", "count"},
	{"workpool.parks", "count"},
	{"catalyst.coprocess_ms", "ms"},
	{"catalyst.copied_bytes", "B"},
	{"eddy.detect_ms", "ms"},
	{"eddy.track_ms", "ms"},
	{"eddy.count", "count"},
	{"vizpipe.execute_ms", "ms"},
	{"render.raster_ms", "ms"},
	{"render.composite_ms", "ms"},
	{"render.ortho_ms", "ms"},
	{"render.encode_ms", "ms"},
	{"render.frames", "count"},
	{"render.png_bytes_per_frame", "B"},
	{"live.sample_ms_p50", "ms"},
	{"live.sample_ms_p99", "ms"},
	{"cinemastore.put_ms_p50", "ms"},
	{"cinemastore.put_ms_p99", "ms"},
	{"cinemastore.commit_ms", "ms"},
	{"cinemastore.files", "count"},
	{"cinemastore.adopt_ms", "ms"},
	{"cinemastore.read_us_p50", "us"},
	{"cinemastore.read_us_p99", "us"},
	{"cinemastore.verify_us_p50", "us"},
	{"pio.gather_ms", "ms"},
	{"ncfile.write_ms", "ms"},
	{"ncfile.read_ms", "ms"},
	{"ncfile.bytes", "B"},
	{"intransit.send_ms_p50", "ms"},
	{"intransit.send_ms_p99", "ms"},
	{"intransit.wire_bytes", "B"},
	{"intransit.wire_ratio", "ratio"},
	{"intransit.reconnects", "count"},
	{"cinemaserve.frame_us_p50", "us"},
	{"cinemaserve.frame_us_p99", "us"},
	{"cinemaserve.hit_ratio", "ratio"},
	{"cinemaserve.store_reads", "count"},
	{"cinemaserve.evictions", "count"},
	{"cinemaserve.shed", "count"},
	{"load.late_us_p99", "us"},
	{"load.fixed_p50_us", "us"},
	{"load.fixed_p99_us", "us"},
	{"load.ladder_max_rps", "req/s"},
	{"trace.overhead_ratio", "ratio"},
}

// bench is one invocation's state: the workload's settings, the metrics
// gathered so far, and the operation and check accounting.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory for stores, removed at exit

	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// note prints one human-readable result line. The machine-readable
// result is the last line of standard output.
func (b *bench) note(format string, args ...any) {
	fmt.Printf("%s: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// check records a failed output check.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.problems = append(b.problems, msg)
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", b.workload, msg)
	}
	return ok
}

// ops accounts attempted and failed operations.
func (b *bench) ops(attempted, failed int) {
	b.attempted += int64(attempted)
	b.failed += int64(failed)
}

// dir returns a fresh directory under the scratch directory.
func (b *bench) dir(name string) (string, error) {
	d := filepath.Join(b.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish prints every metric of the run's set with its unit, then the
// result line, and reports whether every check passed.
func (b *bench) finish() (bool, error) {
	specs := endToEnd
	if b.traced {
		specs = perLayer
	}
	out := result{Correct: len(b.problems) == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := b.metrics[m.Name]
		if !ok && !b.traced {
			b.check(false, "metric %s not measured", m.Name)
			out.Correct = false
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// Only failed requests make a latency infinite; they are
			// already counted, and JSON has no infinity.
			b.check(false, "metric %s is %v", m.Name, v)
			out.Correct, v = false, 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%s: metric %-28s %14.6g %s\n", b.workload, m.Name, v, m.Unit)
	}
	b.note("attempted %d failed %d failed_ratio %.6g (of %d)", b.attempted, b.failed,
		ratio(float64(b.failed), float64(b.attempted)), b.attempted)
	if len(b.problems) > 0 {
		b.note("checks FAILED: %s", strings.Join(b.problems, "; "))
	} else {
		b.note("checks ok")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.Correct, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed (drives serve_zipf's key stream and arrival times)")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	traceFlag := flag.Int("trace", 0, "1 runs the traced driver and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(".perfbench", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, work: work, metrics: map[string]float64{}}
	b.note("%s", fingerprint(work))
	err = run(b)
	if rmErr := os.RemoveAll(work); err == nil {
		err = rmErr
	}
	if err != nil {
		// A run that could not finish reports nothing: its figures would
		// describe part of a workload.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	correct, err := b.finish()
	if err != nil || !correct {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(1)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"post_sim":    func(b *bench) error { return b.runLive(postSim) },
	"insitu_viz":  func(b *bench) error { return b.runLive(insituViz) },
	"transit_viz": func(b *bench) error { return b.runLive(transitViz) },
	"serve_zipf":  (*bench).runServe,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
