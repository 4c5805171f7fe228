package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public call. Parent is the enclosing span's ID (0 at the root) and
// Op the sample or request the call served (-1 for run-level calls).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// Safe for concurrent use. A nil tracer records nothing, so untraced code
// paths run the same calls without paying for spans.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op returns a fresh ID for one sample or request, unique across every
// run the tracer records.
func (t *tracer) op() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, in nanoseconds, indexed like spans. Children
// may overlap one another (concurrent requests); their union is removed.
func selfTimes(spans []span) []float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered := int64(0)
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = float64(s.End - s.Start - covered)
	}
	return out
}

// spanSet indexes a run's spans for per-layer figures.
type spanSet struct {
	spans []span
	self  []float64 // ns, see selfTimes
}

func newSpanSet(spans []span) spanSet { return spanSet{spans: spans, self: selfTimes(spans)} }

// times returns, in milliseconds, the self time (or, with total set, the
// whole duration) of every span named name: one value per span, or with
// perOp one per sample or request, summed over its spans.
func (s spanSet) times(name string, perOp, total bool) dist {
	var out []float64
	byOp := map[int]int{} // op -> index in out
	for i, sp := range s.spans {
		if sp.Name != name {
			continue
		}
		v := s.self[i] / 1e6
		if total {
			v = sp.dur() / 1e6
		}
		if !perOp {
			out = append(out, v)
			continue
		}
		if k, ok := byOp[sp.Op]; ok {
			out[k] += v
			continue
		}
		byOp[sp.Op] = len(out)
		out = append(out, v)
	}
	return newDist(out)
}

// call runs fn under a span named name.
func (t *tracer) call(name string, parent int, fn func() error) error {
	id := t.begin(name, parent, -1)
	defer t.end(id)
	return fn()
}
