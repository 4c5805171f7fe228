package render

import (
	"image"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/leakcheck"
)

func fillFrame(img *image.RGBA, v byte) {
	for i := range img.Pix {
		img.Pix[i] = v
	}
}

// storeFiles reads every regular file of a store directory.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	list, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, de := range list {
		if de.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = data
	}
	return out
}

func TestPipelinedWriterRoundTrip(t *testing.T) {
	defer leakcheck.Check(t)()
	db, err := NewCinemaDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db)
	defer w.Close()

	// The writer must copy: the source frame is clobbered right after every
	// Submit, the way a reused render frame is. Times 1.2 and 1.4 share a
	// file name stem, so the serial path's collision suffix must be
	// reproduced too.
	frame := image.NewRGBA(image.Rect(0, 0, 32, 16))
	serial := image.NewRGBA(image.Rect(0, 0, 32, 16))
	sdb, err := NewCinemaDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range []float64{0, 1.2, 1.4, 3, 4, 5, 6, 7} {
		fillFrame(frame, byte(10*i+1))
		fillFrame(serial, byte(10*i+1))
		if _, err := sdb.AddImageAt(serial, tm, 0.5, -0.25, "w"); err != nil {
			t.Fatal(err)
		}
		if err := w.Submit(frame, tm, 0.5, -0.25, "w"); err != nil {
			t.Fatal(err)
		}
		fillFrame(frame, 0xEE)
	}
	got, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// The recorded entries come back in submission order (here also the
	// canonical order), identical to the serial writer's — names, sizes
	// and content addresses.
	if want := sdb.w.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Flush entries =\n%+v\nwant\n%+v", got, want)
	}
	if db.TotalBytes() != sdb.TotalBytes() {
		t.Fatalf("total bytes %d, serial %d", db.TotalBytes(), sdb.TotalBytes())
	}

	// A second Flush covers only what came after the first.
	fillFrame(frame, 7)
	if err := w.Submit(frame, 100, 0, 0, "w"); err != nil {
		t.Fatal(err)
	}
	if got, err := w.Flush(); err != nil || len(got) != 1 {
		t.Fatalf("second Flush = (%d entries, %v), want (1, nil)", len(got), err)
	}
	if _, err := sdb.AddImageAt(frame, 100, 0, 0, "w"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second Close should be a no-op, got", err)
	}
	for _, d := range []*CinemaDB{db, sdb} {
		if _, err := d.WriteIndex(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := storeFiles(t, db.Dir()), storeFiles(t, sdb.Dir()); !reflect.DeepEqual(a, b) {
		t.Fatal("pipelined store differs from the serial store")
	}
}

func TestPipelinedWriterErrors(t *testing.T) {
	defer leakcheck.Check(t)()
	db, err := NewCinemaDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db)
	defer w.Close()
	if err := w.Submit(nil, 0, 0, 0, "w"); err == nil {
		t.Error("nil image accepted")
	}
	frame := image.NewRGBA(image.Rect(0, 0, 8, 8))
	if err := w.Submit(frame, 0, 0, 0, ""); err == nil {
		t.Error("empty field accepted")
	}
	// Duplicate axis tuples are a store error, even when the first copy is
	// still in flight in the same batch. It must surface at Flush at the
	// duplicate's position, after the frame before it, and poison the
	// frames after it.
	for i := 0; i < 3; i++ {
		if err := w.Submit(frame, 1, 0, 0, "w"); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := w.Flush()
	if err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("duplicate key error lost: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("frames before poison = %d, want 1", len(entries))
	}
	if n := len(db.Entries()); n != 1 {
		t.Fatalf("index holds %d entries, want 1", n)
	}
	// Poisoned: later submits are dropped and the error stays sticky.
	if err := w.Submit(frame, 2, 0, 0, "w"); err != nil {
		t.Fatal(err)
	}
	if entries, ferr := w.Flush(); ferr == nil || len(entries) != 0 {
		t.Fatalf("poisoned Flush = (%d entries, %v), want (0, error)", len(entries), ferr)
	}
	if cerr := w.Close(); cerr == nil {
		t.Fatal("Close should report the sticky error")
	}
}

func TestPipelinedWriterFailedWriteMidBatch(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	db, err := NewCinemaDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db)
	defer w.Close()

	// One committed sample, then a sample whose middle frame cannot land:
	// a directory already sits at the name it reserves.
	frame := image.NewRGBA(image.Rect(0, 0, 16, 8))
	fillFrame(frame, 3)
	if err := w.Submit(frame, 0, 0, 0, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	const bad = "t000000000003_w.png"
	if err := os.Mkdir(filepath.Join(dir, bad), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		fillFrame(frame, byte(20*i))
		if err := w.Submit(frame, float64(i), 0, 0, "w"); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := w.Flush()
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("Flush error = %v, want the write of %s", err, bad)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.File)
	}
	if want := []string{"t000000000001_w.png", "t000000000002_w.png"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("recorded %v, want %v", names, want)
	}
	if _, err := db.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close lost the write error")
	}
	st, err := cinemastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.Entries()); n != 3 {
		t.Fatalf("committed index holds %d entries, want 3", n)
	}

	// The frames after the failed one were written concurrently and may
	// have landed; none is indexed, so RepairOpen quarantines them.
	st, rep, err := cinemastore.RepairOpen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"t000000000004_w.png", "t000000000005_w.png"}; !reflect.DeepEqual(rep.Quarantined, want) {
		t.Fatalf("quarantined %v, want %v", rep.Quarantined, want)
	}
	if len(rep.CorruptQuarantined) != 0 || len(st.Entries()) != 3 {
		t.Fatalf("repair = %+v, %d entries", rep, len(st.Entries()))
	}
	for _, e := range st.Entries() {
		data, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.VerifyFrame(data); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPipelinedWriterSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// A live sample's frame mix: the equirectangular map, two square
	// ortho views and the core frame. After one warm-up batch the encoders
	// run on the writer's free-listed PNG state and recycled staging
	// frames; what remains per round is the store's file handling and the
	// stdlib encoder's small fixed allocations.
	m := testMesh(t)
	r, err := NewRasterizer(m, 96, 48)
	if err != nil {
		t.Fatal(err)
	}
	field := testField(m)
	equi, err := r.Render(field, OkuboWeissMap(), SymmetricRange(field))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewImageSetRenderer(m, 48, 48, DefaultCameraSet()[:2])
	if err != nil {
		t.Fatal(err)
	}
	views, err := sr.RenderFrames(field, OkuboWeissMap(), SymmetricRange(field))
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewCinemaDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db)
	defer w.Close()
	tm := 0.0
	round := func() {
		tm++
		for _, f := range []struct {
			img   *image.RGBA
			field string
		}{{equi, "w"}, {views[0], "w_view0"}, {views[1], "w_view1"}, {equi, "w_cores"}} {
			if err := w.Submit(f.img, tm, 0, 0, f.field); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the writer's list with one warm encoder per goroutine, the
	// most that can be checked out at once, so the rounds below cannot
	// miss however the frames interleave. Every encoder goes back on the
	// list before its frame counts as written, so after a Flush the list
	// holds every encoder the writer has.
	procs := runtime.GOMAXPROCS(0)
	for i := 0; i < procs; i++ {
		e := new(PNGEncoder)
		if _, err := e.Encode(equi); err != nil {
			t.Fatal(err)
		}
		w.encs = append(w.encs, e)
	}
	held := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.encs)
	}
	round()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	allocs := testing.AllocsPerRun(5, round)
	runtime.ReadMemStats(&ms1)
	if n := held(); n != procs {
		t.Errorf("writer holds %d encoders, want GOMAXPROCS = %d", n, procs)
	}
	// One fresh flate writer alone is ~1 MB; six rounds stay far below.
	if b := ms1.TotalAlloc - ms0.TotalAlloc; b > 256<<10 {
		t.Errorf("six steady-state rounds allocated %d bytes", b)
	}
	if allocs > 120 {
		t.Errorf("a 4-frame round allocates %.1f objects, want <= 120", allocs)
	}
	t.Logf("%.1f allocs per 4-frame round", allocs)
}
