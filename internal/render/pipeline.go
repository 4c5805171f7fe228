package render

import (
	"fmt"
	"image"
	"runtime"
	"sync"

	"insituviz/internal/cinemastore"
)

// pipeJob is one submitted frame: its staged copy, its store reservation,
// and — once an encoder goroutine has written it — the entry or error.
type pipeJob struct {
	frame *image.RGBA
	res   cinemastore.Reservation
	entry cinemastore.Entry
	err   error
}

// PipelinedCinemaWriter takes PNG encoding and store writes off the
// caller's goroutine. Submit reserves the frame's slot in the store in
// submission order, copies the frame into an owned staging buffer and
// queues it; up to GOMAXPROCS encoder goroutines encode and write queued
// frames concurrently. Flush is the barrier: it waits for every submitted
// frame and records the written entries into the index in submission
// order. Entries, file names, the index and every frame byte are exactly
// what the same sequence of CinemaDB.AddImageAt calls produces.
//
// Errors are sticky and surface at Flush in submission order: the first
// failed frame's error is returned, and no frame submitted after it is
// recorded — later frames still in flight may land on disk, unreferenced,
// for RepairOpen to quarantine. Submits after a failure are dropped.
//
// One goroutine submits and flushes. It may use the CinemaDB directly
// between them; only the frame writes run elsewhere. Close flushes, stops
// the encoders, and is safe to call more than once.
type PipelinedCinemaWriter struct {
	db      *CinemaDB
	jobs    chan *pipeJob
	pending sync.WaitGroup // submitted frames not yet written
	workers sync.WaitGroup

	// Submitter-owned state.
	batch    []*pipeJob // submitted since the last Flush, in order
	spare    []*pipeJob
	entries  []cinemastore.Entry
	rejected bool  // a Reserve in this batch failed; drop until Flush
	err      error // first error, sticky

	// Staging frames and PNG encoders, recycled by the encoder
	// goroutines. An encoder holds ~0.94 MB of stdlib state, almost all
	// of it flate hash tables; the list fills lazily, so it holds as many
	// encoders as ever ran at once, and it dies with the writer.
	mu   sync.Mutex
	free []*image.RGBA
	encs []*PNGEncoder

	closed   bool
	closeErr error
}

// NewPipelinedCinemaWriter wraps db with a concurrent encode+write stage
// of runtime.GOMAXPROCS(0) encoder goroutines.
func NewPipelinedCinemaWriter(db *CinemaDB) *PipelinedCinemaWriter {
	n := runtime.GOMAXPROCS(0)
	// The queue holds a whole live sample — the map, up to six ortho views
	// and the eddy-core frame — so submitting one never waits on encoders.
	w := &PipelinedCinemaWriter{db: db, jobs: make(chan *pipeJob, 8)}
	w.workers.Add(n)
	for i := 0; i < n; i++ {
		go w.encode()
	}
	return w
}

func (w *PipelinedCinemaWriter) encode() {
	defer w.workers.Done()
	for j := range w.jobs {
		var enc *PNGEncoder
		w.mu.Lock()
		if n := len(w.encs); n > 0 {
			enc = w.encs[n-1]
			w.encs = w.encs[:n-1]
		}
		w.mu.Unlock()
		if enc == nil {
			enc = new(PNGEncoder)
		}
		data, err := enc.Encode(j.frame)
		if err == nil {
			if j.entry, err = w.db.w.Write(j.res, data); err != nil {
				err = fmt.Errorf("render: write image: %w", err)
			}
		}
		j.err = err
		w.mu.Lock()
		w.free = append(w.free, j.frame)
		w.encs = append(w.encs, enc)
		w.mu.Unlock()
		j.frame = nil
		w.pending.Done()
	}
}

// stage copies img into a free staging frame of the same geometry, or a
// new one. The encoders recycle every frame they finish, so the steady
// state allocates nothing.
func (w *PipelinedCinemaWriter) stage(img *image.RGBA) *image.RGBA {
	var dst *image.RGBA
	w.mu.Lock()
	for i, f := range w.free {
		if f.Rect == img.Rect {
			dst = f
			last := len(w.free) - 1
			w.free[i] = w.free[last]
			w.free[last] = nil
			w.free = w.free[:last]
			break
		}
	}
	w.mu.Unlock()
	return stageFrame(dst, img)
}

// stageFrame copies src into dst, allocating when dst is nil or its
// bounds differ. Frames from NewFrame share the exact layout of their
// staging copies, so the common case is one bulk copy.
func stageFrame(dst, src *image.RGBA) *image.RGBA {
	if dst == nil || dst.Rect != src.Rect {
		dst = image.NewRGBA(src.Rect)
	}
	if dst.Stride == src.Stride && len(dst.Pix) == len(src.Pix) {
		copy(dst.Pix, src.Pix)
		return dst
	}
	// Stride mismatch (src is a sub-image): copy the visible rows.
	n := 4 * src.Rect.Dx()
	for y := 0; y < src.Rect.Dy(); y++ {
		copy(dst.Pix[y*dst.Stride:y*dst.Stride+n], src.Pix[y*src.Stride:y*src.Stride+n])
	}
	return dst
}

// Submit reserves the frame's slot under the full Cinema axis tuple,
// stages a copy of img and queues it — the caller may immediately
// rerender into img. It blocks only when the queue is full. A rejected
// key (a duplicate, even of a frame still in flight) and write errors
// surface at the next Flush, in submission order.
func (w *PipelinedCinemaWriter) Submit(img *image.RGBA, simTime, phi, theta float64, field string) error {
	if img == nil {
		return fmt.Errorf("render: nil image")
	}
	if field == "" {
		return fmt.Errorf("render: empty field name")
	}
	if w.err != nil || w.rejected {
		return nil
	}
	var j *pipeJob
	if n := len(w.spare); n > 0 {
		j = w.spare[n-1]
		w.spare = w.spare[:n-1]
	} else {
		j = new(pipeJob)
	}
	w.batch = append(w.batch, j)
	res, err := w.db.w.Reserve(cinemastore.Key{Time: simTime, Phi: phi, Theta: theta, Variable: field})
	if err != nil {
		j.err = fmt.Errorf("render: write image: %w", err)
		w.rejected = true
		return nil
	}
	j.res = res
	j.frame = w.stage(img)
	w.pending.Add(1)
	w.jobs <- j
	return nil
}

// Flush waits for every submitted frame to be written, records them in
// submission order, and returns the recorded entries — valid until the
// next Flush — with the first error. After an error nothing more is
// recorded; the caller decides whether to abort or keep sampling.
func (w *PipelinedCinemaWriter) Flush() ([]cinemastore.Entry, error) {
	w.pending.Wait()
	w.entries = w.entries[:0]
	for _, j := range w.batch {
		if w.err == nil && j.err != nil {
			w.err = j.err
		}
		if w.err == nil {
			w.err = w.db.record(j.entry)
		}
		if w.err == nil {
			w.entries = append(w.entries, j.entry)
		} else {
			w.db.w.Release(j.res)
		}
		*j = pipeJob{}
		w.spare = append(w.spare, j)
	}
	w.batch = w.batch[:0]
	w.rejected = false
	return w.entries, w.err
}

// Close flushes, stops the encoder goroutines, and returns the sticky
// error, if any. Idempotent; later calls return the first result.
func (w *PipelinedCinemaWriter) Close() error {
	if !w.closed {
		w.closed = true
		_, w.closeErr = w.Flush()
		close(w.jobs)
		w.workers.Wait()
	}
	return w.closeErr
}
