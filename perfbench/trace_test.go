package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestSelfTimesRemoveChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
		{ID: 5, Parent: 1, Name: "a", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []float64{100 - 50 - 10, 30, 20, 10, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	ss := newSpanSet(spans)
	if d := ss.times("a", false, false); len(d) != 2 {
		t.Fatalf("per-call times %v, want two", d)
	}
	if d := ss.times("a", true, false); len(d) != 1 || d[0] != 60e-6 {
		t.Fatalf("per-op times %v, want one op of 60 ns", d)
	}
}

func TestTracerNilAndNesting(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, off.op()); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0)
	tr := newTracer()
	op := tr.op()
	root := tr.begin("root", 0, op)
	if err := tr.call("child", root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Op != op || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}

// BENCHMARK.json at the repository root names the same workloads and
// metrics, with the same units, as the harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames())
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", bj.PerLayer, perLayer)
	}
}
