package workpool

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insituviz/internal/leakcheck"
)

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	// n=10 split 6 ways runs as five chunks of 2: the barrier must wait
	// for five, not six.
	for _, c := range []struct{ n, chunks int }{
		{10000, 1}, {10000, 2}, {10000, 3}, {10000, 4}, {10000, 7}, {10000, 16}, {10000, 100},
		{10, 6}, {40, 16},
	} {
		hits := make([]int32, c.n)
		Run(len(hits), c.chunks, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i := range hits {
			if hits[i] != 1 {
				t.Fatalf("n=%d chunks=%d: index %d visited %d times", c.n, c.chunks, i, hits[i])
			}
		}
	}
}

func TestRunSmallAndDegenerateRanges(t *testing.T) {
	ran := false
	Run(0, 4, func(lo, hi int) { ran = true })
	if ran {
		t.Error("Run(0, ...) must not invoke fn")
	}
	hits := make([]int32, 3)
	Run(len(hits), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestRunChunkBoundariesDeterministic asserts the exact chunk geometry the
// solver's bit-determinism depends on: ceil(n/chunks) sizing at ascending
// offsets, independent of scheduling and of the pool's worker count (a
// single-worker pool executes the identical chunk sequence inline).
func TestRunChunkBoundariesDeterministic(t *testing.T) {
	n, chunks := 10007, 4
	want := make(map[int]int) // lo -> hi
	size := (n + chunks - 1) / chunks
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		want[lo] = hi
	}
	var mu sync.Mutex
	got := make(map[int]int)
	Run(n, chunks, func(lo, hi int) {
		mu.Lock()
		got[lo] = hi
		mu.Unlock()
	})
	if len(got) != len(want) {
		t.Fatalf("got %d chunks, want %d", len(got), len(want))
	}
	for lo, hi := range want {
		if got[lo] != hi {
			t.Errorf("chunk at %d: got hi %d, want %d", lo, got[lo], hi)
		}
	}
}

// TestRunLoopsCoversAllLoops drives a fused fan-out over loops with
// different index spaces and chunk counts — the solver's
// continuity+momentum shape — and checks every index of every loop is
// visited exactly once while keeping each loop's Run chunk geometry.
func TestRunLoopsCoversAllLoops(t *testing.T) {
	a := make([]int32, 10242)
	b := make([]int32, 30720)
	var aChunks, bChunks atomic.Int32
	loops := []Loop{
		{N: len(a), Chunks: 3, Fn: func(lo, hi int) {
			aChunks.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&a[i], 1)
			}
		}},
		{N: len(b), Chunks: 5, Fn: func(lo, hi int) {
			bChunks.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&b[i], 1)
			}
		}},
	}
	RunLoops(loops)
	for i := range a {
		if a[i] != 1 {
			t.Fatalf("loop a index %d visited %d times", i, a[i])
		}
	}
	for i := range b {
		if b[i] != 1 {
			t.Fatalf("loop b index %d visited %d times", i, b[i])
		}
	}
	if aChunks.Load() != 3 || bChunks.Load() != 5 {
		t.Errorf("chunk counts = %d/%d, want 3/5", aChunks.Load(), bChunks.Load())
	}
}

// TestRunLoopsDegenerate covers empty and single-chunk members of a fused
// fan-out.
func TestRunLoopsDegenerate(t *testing.T) {
	RunLoops(nil)
	RunLoops([]Loop{{N: 0, Chunks: 4, Fn: func(lo, hi int) { t.Error("empty loop ran") }}})
	hits := make([]int32, 100)
	RunLoops([]Loop{
		{N: 0, Chunks: 2, Fn: func(lo, hi int) { t.Error("empty loop ran") }},
		{N: len(hits), Chunks: 0, Fn: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		}},
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestRunNested drives Run from inside Run bodies, the pattern a pool
// worker triggers when a parallel loop's body itself fans out. The helping
// wait must keep this deadlock-free and still cover every index.
func TestRunNested(t *testing.T) {
	const outer, inner = 8, 4096
	hits := make([][]int32, outer)
	for i := range hits {
		hits[i] = make([]int32, inner)
	}
	Run(outer, outer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := hits[i]
			Run(inner, 4, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					atomic.AddInt32(&row[j], 1)
				}
			})
		}
	})
	for i := range hits {
		for j := range hits[i] {
			if hits[i][j] != 1 {
				t.Fatalf("nested index (%d,%d) visited %d times", i, j, hits[i][j])
			}
		}
	}
}

// TestRunConcurrentCallers exercises independent goroutines sharing the
// pool simultaneously. The leak check proves a Run leaves nothing behind
// but the pool's own persistent workers (which it ignores by name).
func TestRunConcurrentCallers(t *testing.T) {
	defer leakcheck.Check(t)()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := make([]int32, 5000)
			for rep := 0; rep < 20; rep++ {
				Run(len(hits), 4, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
			}
			for i := range hits {
				if hits[i] != 20 {
					t.Errorf("index %d visited %d times, want 20", i, hits[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunStressNestedConcurrent is the -race stress test of the satellite
// checklist: many goroutines fan out simultaneously, every fan-out body
// issues nested fan-outs (so pool workers become waiters mid-chunk), and
// fused multi-loop fan-outs are mixed in. Any lost wakeup, double
// execution, or publish/steal race shows up as a count mismatch, a data
// race, or a hang.
func TestRunStressNestedConcurrent(t *testing.T) {
	const goroutines = 12
	const reps = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outer := make([]int32, 64)
			inner := make([]int32, 2000)
			outerChunks := 4 + g%3
			for rep := 0; rep < reps; rep++ {
				for i := range outer {
					outer[i] = 0
				}
				for i := range inner {
					inner[i] = 0
				}
				Run(len(outer), outerChunks, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&outer[i], 1)
					}
					Run(len(inner)/8, 2, func(lo, hi int) {
						for j := lo; j < hi; j++ {
							atomic.AddInt32(&inner[j], 1)
						}
					})
				})
				RunLoops([]Loop{
					{N: len(inner), Chunks: 3, Fn: func(lo, hi int) {
						for j := lo; j < hi; j++ {
							atomic.AddInt32(&inner[j], 1)
						}
					}},
					{N: len(outer), Chunks: 2, Fn: func(lo, hi int) {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&outer[i], 1)
						}
					}},
				})
				for i := range outer {
					if outer[i] != 2 {
						t.Errorf("outer[%d] = %d, want 2", i, outer[i])
						return
					}
				}
				for j := range inner {
					// The nested fan-out runs once per outer chunk; the
					// fused fan-out touches every index once more.
					want := int32(1)
					if j < len(inner)/8 {
						want = int32(outerChunks) + 1
					}
					if inner[j] != want {
						t.Errorf("inner[%d] = %d, want %d", j, inner[j], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// workpoolGoroutines counts live goroutines whose stacks sit in this
// package — the persistent workers.
func workpoolGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("insituviz/internal/workpool.(*pool).worker"))
}

// TestShutdownStopsWorkers proves idle workers park (not spin) and that
// shutdown reaps every worker goroutine; leakcheck ignores this package by
// name, so the test counts the worker frames directly.
func TestShutdownStopsWorkers(t *testing.T) {
	hits := make([]int32, 4096)
	Run(len(hits), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	p := current.Load()
	if p == nil {
		t.Fatal("pool did not start")
	}
	if p.single {
		if got := workpoolGoroutines(); got != 0 {
			t.Fatalf("single-worker pool runs %d worker goroutines, want 0", got)
		}
	} else {
		// Idle workers must end up parked on the condition variable, not
		// spinning: wait for all of them to register.
		deadline := time.Now().Add(5 * time.Second)
		for {
			p.idleMu.Lock()
			parked := p.parked
			p.idleMu.Unlock()
			if parked == p.workers {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d idle workers parked", parked, p.workers)
			}
			time.Sleep(time.Millisecond)
		}
	}
	shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for workpoolGoroutines() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker goroutines survived shutdown", workpoolGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
	// The pool must restart lazily after a shutdown.
	again := make([]int32, 4096)
	Run(len(again), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&again[i], 1)
		}
	})
	for i, h := range again {
		if h != 1 {
			t.Fatalf("post-restart index %d visited %d times", i, h)
		}
	}
}

func BenchmarkRunFanOut(b *testing.B) {
	data := make([]float64, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(len(data), 4, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] += 1
			}
		})
	}
}

// TestStatsAccounting checks the pool's telemetry counters: every chunk of
// a fan-out is accounted as either submitted (published to a shard) or
// inline (executed directly on the caller — the final chunk, or all chunks
// on a single-worker pool), and the high-water mark reflects observed
// shard occupancy.
func TestStatsAccounting(t *testing.T) {
	before := Snapshot()
	const n, chunks = 10000, 8
	var touched [n]int32
	Run(n, chunks, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&touched[i], 1)
		}
	})
	delta := Snapshot().Sub(before)
	if got := delta.Submitted + delta.Inline; got != chunks {
		t.Errorf("submitted+inline = %d, want %d", got, chunks)
	}
	if delta.Submitted > 0 && delta.QueueHighwater < 1 {
		t.Errorf("chunks were published but high-water mark is %d", delta.QueueHighwater)
	}
	if delta.Helped < 0 || delta.Helped > delta.Submitted {
		t.Errorf("helped = %d out of %d submitted", delta.Helped, delta.Submitted)
	}
	if delta.Steals < delta.Helped {
		t.Errorf("steals = %d < helped = %d; helping pops must count as steals", delta.Steals, delta.Helped)
	}
	if delta.Workers < 1 {
		t.Errorf("workers = %d after a parallel Run", delta.Workers)
	}
	if delta.Workers > 1 && delta.Submitted != chunks-1 {
		t.Errorf("submitted = %d on a %d-worker pool, want %d", delta.Submitted, delta.Workers, chunks-1)
	}
	for i := range touched {
		if touched[i] != 1 {
			t.Fatalf("index %d touched %d times", i, touched[i])
		}
	}
}

// TestStatsRunAllocs: the instrumentation must not reintroduce per-Run
// allocations.
func TestStatsRunAllocs(t *testing.T) {
	buf := make([]int64, 65536)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[i]++
		}
	}
	Run(len(buf), 4, fn) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		Run(len(buf), 4, fn)
	})
	// Budget 2: the sync.Pool holding completion barriers may be cleared
	// by a GC between runs.
	if allocs > 2 {
		t.Errorf("instrumented Run allocates %.1f objects per call, want <= 2", allocs)
	}
}

// TestOverheadNs pins the calibration's clamp range.
func TestOverheadNs(t *testing.T) {
	ns := OverheadNs()
	if ns < 500 || ns > 100_000 {
		t.Errorf("OverheadNs = %d, want within [500, 100000]", ns)
	}
	if again := OverheadNs(); again != ns {
		t.Errorf("OverheadNs not stable: %d then %d", ns, again)
	}
}
