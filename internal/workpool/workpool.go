// Package workpool provides a persistent, process-wide worker pool for the
// data-parallel loops of the science stack (solver tendencies, diagnostics,
// rasterization).
//
// The pool is sharded: every worker owns a deque of chunks, a fan-out is
// published round-robin across the shards in one batch, and workers that
// empty their own deque steal from their neighbors (own shard LIFO for
// locality, steals FIFO so the oldest — largest remaining — work moves
// first). Idle workers park on a condition variable and waiters park on the
// fan-out's completion signal, so an idle pool burns no cycles; the previous
// implementation spun in runtime.Gosched between queue polls.
//
// The pool preserves the determinism contract of the loops it runs: a Loop
// over [0, n) splits into the same contiguous chunks regardless of pool
// width — ceil(n/chunks) sizing at ascending offsets, every index processed
// exactly once, chunks disjoint — so loop bodies that write only their own
// indices produce bit-identical results at any worker count, including the
// degenerate single-worker pool, which executes the identical chunk
// sequence inline on the caller.
//
// RunLoops fuses several independent loops into one fan-out sharing a
// single barrier: the solver uses it to co-schedule loops over different
// index spaces (cells and vertices, cells and edges) that would otherwise
// pay one full publish/park/wake cycle each.
//
// Nested calls are safe: a waiter first executes its own fan-out's final
// chunk, then helps drain the shards; it parks only after a full scan finds
// every shard empty, which means its remaining chunks are already being
// executed by other goroutines, whose completion signal will wake it. Wait
// chains therefore follow loop-nesting depth and always bottom out.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Loop describes one data-parallel loop of a fan-out: Fn is invoked over
// [0, N) split into Chunks contiguous chunks (values < 1 mean one chunk).
// Loops fused into one RunLoops call must be mutually independent — bodies
// may not read what a sibling loop writes, because chunks of all loops
// execute concurrently under one barrier.
type Loop struct {
	N      int
	Chunks int
	Fn     func(lo, hi int)
}

// task is one contiguous chunk of a fan-out. Tasks are stored by value, so
// publishing does not allocate.
type task struct {
	fn     func(lo, hi int)
	lo, hi int
	job    *job
}

// job is the completion barrier of one fan-out. pending counts unfinished
// published chunks; the goroutine that brings it to zero signals done. The
// channel is buffered and never closed, so a stale signal left by a
// recycled job merely causes one spurious wakeup, which the waiter absorbs
// by rechecking pending.
type job struct {
	pending atomic.Int64
	done    chan struct{}
}

// jobPool recycles completion barriers so a steady-state fan-out performs
// no heap allocation.
var jobPool = sync.Pool{New: func() any { return &job{done: make(chan struct{}, 1)} }}

// finish marks one published chunk complete, signaling the waiter when it
// was the last.
func (j *job) finish() {
	if j.pending.Add(-1) == 0 {
		select {
		case j.done <- struct{}{}:
		default:
		}
	}
}

// shard is one worker's deque, guarded by a plain mutex: chunk granularity
// is coarse (a fan-out publishes at most a few chunks per shard), so lock
// traffic is negligible next to chunk execution. The trailing pad keeps
// neighboring shards off one cache line.
type shard struct {
	mu    sync.Mutex
	head  int
	tasks []task
	_     [24]byte
}

func (s *shard) push(t task) {
	s.mu.Lock()
	s.tasks = append(s.tasks, t)
	s.mu.Unlock()
}

// popOwn takes the newest chunk (LIFO), the owner's locality-friendly end.
func (s *shard) popOwn() (task, bool) {
	s.mu.Lock()
	n := len(s.tasks)
	if s.head >= n {
		s.mu.Unlock()
		return task{}, false
	}
	t := s.tasks[n-1]
	s.tasks[n-1] = task{}
	s.tasks = s.tasks[:n-1]
	if s.head >= len(s.tasks) {
		s.tasks = s.tasks[:0]
		s.head = 0
	}
	s.mu.Unlock()
	return t, true
}

// popSteal takes the oldest chunk (FIFO), the end thieves take from.
func (s *shard) popSteal() (task, bool) {
	s.mu.Lock()
	if s.head >= len(s.tasks) {
		s.mu.Unlock()
		return task{}, false
	}
	t := s.tasks[s.head]
	s.tasks[s.head] = task{}
	s.head++
	if s.head >= len(s.tasks) {
		s.tasks = s.tasks[:0]
		s.head = 0
	}
	s.mu.Unlock()
	return t, true
}

// pool is the process-wide pool instance. A single-worker pool (one
// processor, or SetLimit(1)) spawns no goroutines at all: fan-outs execute
// their chunk sequence inline on the caller.
type pool struct {
	shards []shard
	queued atomic.Int64 // chunks currently enqueued across all shards
	cursor atomic.Uint64

	idleMu   sync.Mutex
	idleCond *sync.Cond
	parked   int  // workers waiting on idleCond
	stopped  bool // set by shutdown (tests); workers drain, then exit

	workers int
	single  bool
	wg      sync.WaitGroup
}

var (
	poolMu  sync.Mutex
	current atomic.Pointer[pool]
	limit   atomic.Int64 // configured worker cap; 0 = GOMAXPROCS
)

// Pool activity counters, maintained with single atomic operations per
// chunk so instrumentation never adds an allocation to the hot path. The
// pool is process-wide, so these are lifetime totals; per-run accounting
// diffs two Stats snapshots (see Snapshot). The high-water mark is written
// only under idleMu (publishers hold it to wake workers anyway), which
// replaces the unbounded CAS retry loop the old implementation used.
var (
	statSubmitted atomic.Int64 // chunks published to the shards
	statInline    atomic.Int64 // chunks executed directly on the caller
	statHelped    atomic.Int64 // chunks executed by a helping waiter
	statSteals    atomic.Int64 // chunks taken from a shard by a non-owner
	statParks     atomic.Int64 // idle-worker and waiter park events
	statWakeups   atomic.Int64 // workers signaled out of an idle park
	statHighwater atomic.Int64 // deepest observed shard occupancy
)

// Stats is a point-in-time copy of the pool's lifetime activity.
type Stats struct {
	// Submitted counts chunks published to the worker shards; Inline
	// counts chunks the caller executed directly — each fan-out's final
	// chunk, and every chunk of a fan-out on a single-worker pool.
	// Submitted+Inline is the total chunk count of all fan-outs.
	Submitted int64
	Inline    int64
	// Helped counts chunks a waiting caller drained from the shards
	// instead of parking. Steals counts chunks executed off a shard by a
	// goroutine other than its owning worker; helping waiters own no
	// shard, so Helped is a subset of Steals.
	Helped int64
	Steals int64
	// Parks counts idle-worker and waiter park events; Wakeups counts
	// workers signaled back out of an idle park by a publish. A pool that
	// parks instead of spinning shows Parks ≈ Wakeups + idle workers.
	Parks   int64
	Wakeups int64
	// QueueHighwater is the deepest total shard occupancy observed at
	// publish time.
	QueueHighwater int64
	// Workers is the pool's parallel width: the persistent worker count,
	// or 1 for a single-worker (inline) pool. Zero until the pool first
	// starts.
	Workers int64
}

// Snapshot returns the pool's lifetime activity counters. Subtract an
// earlier snapshot with Sub for per-run accounting.
func Snapshot() Stats {
	var w int64
	if p := current.Load(); p != nil {
		w = int64(p.workers)
	}
	return Stats{
		Submitted:      statSubmitted.Load(),
		Inline:         statInline.Load(),
		Helped:         statHelped.Load(),
		Steals:         statSteals.Load(),
		Parks:          statParks.Load(),
		Wakeups:        statWakeups.Load(),
		QueueHighwater: statHighwater.Load(),
		Workers:        w,
	}
}

// Sub returns the activity between an earlier snapshot prev and s. The
// queue high-water mark and worker count are not differenced — they carry
// over as the later snapshot's values.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Submitted:      s.Submitted - prev.Submitted,
		Inline:         s.Inline - prev.Inline,
		Helped:         s.Helped - prev.Helped,
		Steals:         s.Steals - prev.Steals,
		Parks:          s.Parks - prev.Parks,
		Wakeups:        s.Wakeups - prev.Wakeups,
		QueueHighwater: s.QueueHighwater,
		Workers:        s.Workers,
	}
}

// SetLimit caps the pool's worker count below GOMAXPROCS (0 restores the
// default). The cap applies when the pool next starts; it reports whether
// it took effect immediately (false means the pool is already running and
// keeps its current width).
func SetLimit(n int) bool {
	poolMu.Lock()
	defer poolMu.Unlock()
	if n < 0 {
		n = 0
	}
	limit.Store(int64(n))
	return current.Load() == nil
}

func getPool() *pool {
	if p := current.Load(); p != nil {
		return p
	}
	return startPool()
}

func startPool() *pool {
	poolMu.Lock()
	defer poolMu.Unlock()
	if p := current.Load(); p != nil {
		return p
	}
	n := runtime.GOMAXPROCS(0)
	if l := int(limit.Load()); l > 0 && l < n {
		n = l
	}
	if n < 1 {
		n = 1
	}
	p := &pool{workers: n, single: n <= 1}
	p.idleCond = sync.NewCond(&p.idleMu)
	if !p.single {
		p.shards = make([]shard, n)
		for i := range p.shards {
			p.shards[i].tasks = make([]task, 0, 16)
		}
		p.wg.Add(n)
		for i := 0; i < n; i++ {
			go p.worker(i)
		}
	}
	current.Store(p)
	return p
}

// shutdown stops the current pool after its shards drain and waits for the
// workers to exit, leaving the package ready to lazily start a fresh pool.
// Callers must not have fan-outs in flight. Exposed to tests only.
func shutdown() {
	poolMu.Lock()
	defer poolMu.Unlock()
	p := current.Load()
	if p == nil {
		return
	}
	p.idleMu.Lock()
	p.stopped = true
	p.idleCond.Broadcast()
	p.idleMu.Unlock()
	p.wg.Wait()
	current.Store(nil)
}

// worker is one persistent pool goroutine: execute from the own shard,
// steal when it is empty, park when every shard is.
func (p *pool) worker(id int) {
	defer p.wg.Done()
	for {
		if t, ok := p.take(id); ok {
			t.fn(t.lo, t.hi)
			t.job.finish()
			continue
		}
		p.idleMu.Lock()
		for p.queued.Load() <= 0 && !p.stopped {
			p.parked++
			statParks.Add(1)
			p.idleCond.Wait()
			p.parked--
		}
		stopped := p.stopped && p.queued.Load() <= 0
		p.idleMu.Unlock()
		if stopped {
			return
		}
	}
}

// take pops the worker's own shard first (LIFO), then scans the others for
// a steal (FIFO).
func (p *pool) take(owner int) (task, bool) {
	if t, ok := p.shards[owner].popOwn(); ok {
		p.queued.Add(-1)
		return t, true
	}
	ns := len(p.shards)
	for i := 1; i < ns; i++ {
		if t, ok := p.shards[(owner+i)%ns].popSteal(); ok {
			p.queued.Add(-1)
			statSteals.Add(1)
			return t, true
		}
	}
	return task{}, false
}

// takeAny is the helping waiter's scan. A waiter owns no shard, so every
// pop counts as a steal.
func (p *pool) takeAny(start int) (task, bool) {
	ns := len(p.shards)
	for i := 0; i < ns; i++ {
		if t, ok := p.shards[(start+i)%ns].popSteal(); ok {
			p.queued.Add(-1)
			statSteals.Add(1)
			return t, true
		}
	}
	return task{}, false
}

// wake raises the shard-occupancy high-water mark and signals up to k
// parked workers. Publishers already serialize on idleMu here, which is
// what makes the plain high-water load/store race-free.
func (p *pool) wake(depth int64, k int) {
	p.idleMu.Lock()
	if depth > statHighwater.Load() {
		statHighwater.Store(depth)
	}
	n := p.parked
	if n > k {
		n = k
	}
	for i := 0; i < n; i++ {
		p.idleCond.Signal()
	}
	p.idleMu.Unlock()
	if n > 0 {
		statWakeups.Add(int64(n))
	}
}

// normChunks returns how many chunks a loop over n indices runs as when
// split into the requested count clamped to [1, n], or 0 for an empty
// loop. Chunks of ceil(n/chunks) indices can cover n in fewer pieces than
// asked (n=10, chunks=6: five chunks of 2), and the completion barrier
// must count the pieces actually published.
func normChunks(n, chunks int) int {
	if n <= 0 {
		return 0
	}
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	size := (n + chunks - 1) / chunks
	return (n + size - 1) / size
}

// Run executes fn over [0, n) split into `chunks` contiguous chunks and
// returns only after every index has been processed. Chunk boundaries
// depend solely on (n, chunks): chunk size is ceil(n/chunks) at ascending
// offsets, so results remain bit-identical at any worker count for
// disjoint-write loop bodies.
func Run(n, chunks int, fn func(lo, hi int)) {
	loops := [1]Loop{{N: n, Chunks: chunks, Fn: fn}}
	RunLoops(loops[:])
}

// RunLoops executes several independent loops as one fan-out under a
// single completion barrier: every chunk of every loop is published in one
// batch, chunks of different loops execute concurrently, and RunLoops
// returns only after all of them finish. Each loop keeps the exact chunk
// geometry Run would give it. On a single-worker pool the same chunk
// sequence executes inline, in loop order.
func RunLoops(loops []Loop) {
	total := 0
	last := -1
	for i := range loops {
		if c := normChunks(loops[i].N, loops[i].Chunks); c > 0 {
			total += c
			last = i
		}
	}
	if total == 0 {
		return
	}
	p := getPool()
	if p.single || total == 1 {
		for i := range loops {
			l := loops[i]
			c := normChunks(l.N, l.Chunks)
			if c == 0 {
				continue
			}
			size := (l.N + c - 1) / c
			for lo := 0; lo < l.N; lo += size {
				hi := lo + size
				if hi > l.N {
					hi = l.N
				}
				l.Fn(lo, hi)
			}
			statInline.Add(int64(c))
		}
		return
	}

	// Publish every chunk except the last loop's final one, which the
	// caller runs below so one chunk's work always overlaps the drain.
	// Chunks are spread round-robin across the shards starting at a
	// rotating cursor, giving concurrent fan-outs disjoint home shards.
	j := jobPool.Get().(*job)
	j.pending.Store(int64(total - 1))
	ns := len(p.shards)
	start := int(p.cursor.Add(1) % uint64(ns))
	slot := start
	published := 0
	var finalFn func(lo, hi int)
	var finalLo, finalHi int
	for i := range loops {
		l := loops[i]
		c := normChunks(l.N, l.Chunks)
		if c == 0 {
			continue
		}
		size := (l.N + c - 1) / c
		for lo := 0; lo < l.N; lo += size {
			hi := lo + size
			if hi > l.N {
				hi = l.N
			}
			if i == last && hi == l.N {
				finalFn, finalLo, finalHi = l.Fn, lo, hi
				break
			}
			p.shards[slot].push(task{fn: l.Fn, lo: lo, hi: hi, job: j})
			slot++
			if slot == ns {
				slot = 0
			}
			published++
		}
	}
	statSubmitted.Add(int64(published))
	statInline.Add(1)
	p.wake(p.queued.Add(int64(published)), published)

	finalFn(finalLo, finalHi)

	// Helping wait: while our chunks are outstanding, drain whatever the
	// shards hold (ours or another fan-out's). A full scan finding every
	// shard empty means our remaining chunks are in flight on other
	// goroutines, so parking on the completion signal is deadlock-free.
	for j.pending.Load() > 0 {
		if t, ok := p.takeAny(start); ok {
			statHelped.Add(1)
			t.fn(t.lo, t.hi)
			t.job.finish()
			continue
		}
		if j.pending.Load() <= 0 {
			break
		}
		statParks.Add(1)
		<-j.done
	}
	// Drain a completion signal the final finish may have sent after the
	// fast-path pending check, so the recycled job starts clean (a missed
	// one is harmless — see job).
	select {
	case <-j.done:
	default:
	}
	jobPool.Put(j)
}

var (
	overheadOnce sync.Once
	overheadVal  int64
)

// OverheadNs reports the measured wall-clock cost of one fan-out through
// the pool (publish, wake, execute empty chunks, barrier), measured once on
// first call. Grain-size tuning divides it by a loop's per-index cost to
// find the smallest range worth fanning out. Single-worker pools return a
// nominal constant, since their fan-outs are inline loops.
func OverheadNs() int64 {
	overheadOnce.Do(func() {
		p := getPool()
		if p.single {
			overheadVal = 2000
			return
		}
		nop := func(lo, hi int) {}
		chunks := 2 * p.workers
		for i := 0; i < 16; i++ {
			Run(chunks, chunks, nop)
		}
		const reps = 128
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			Run(chunks, chunks, nop)
		}
		ns := time.Since(t0).Nanoseconds() / reps
		if ns < 500 {
			ns = 500
		}
		if ns > 100_000 {
			ns = 100_000
		}
		overheadVal = ns
	})
	return overheadVal
}
