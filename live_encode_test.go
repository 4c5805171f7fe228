package insituviz

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/livemodel"
	"insituviz/internal/render"
)

// TestLiveRunEncodeStageDeterministic holds the determinism contract at
// the encode stage: the same seeded chaos run with the live model, ortho
// views and eddy-core frames commits a byte-identical store — index,
// manifest, every frame — whether one encoder goroutine or four write
// the frames, and the store equals one built serially through
// CinemaDB.AddImageAt. Image accounting and the model's /model snapshot
// and anomaly log do not depend on the encoder count either.
func TestLiveRunEncodeStageDeterministic(t *testing.T) {
	type outcome struct {
		dir        string
		res        *LiveResult
		model, log []byte
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		plan, err := faults.Profile("default", 7)
		if err != nil {
			t.Fatal(err)
		}
		in, err := faults.New(plan)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		res, err := LiveRun(LiveConfig{
			Mode:             InSitu,
			MeshSubdivisions: 2,
			Steps:            64,
			SampleEverySteps: 8,
			OutputDir:        dir,
			ImageWidth:       64,
			ImageHeight:      32,
			RenderRanks:      4,
			OrthoViews:       2,
			EddyCoreImages:   true,
			Faults:           in,
			Model:            livemodel.New(livemodel.Config{Window: 256, Damping: 1e-9}),
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		var j, l bytes.Buffer
		if err := res.Model.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := res.Model.WriteLog(&l); err != nil {
			t.Fatal(err)
		}
		return outcome{dir: dir, res: res, model: j.Bytes(), log: l.Bytes()}
	}
	one, four := run(1), run(4)
	if one.res.Images == 0 || one.res.DroppedSamples == 0 {
		t.Fatalf("run committed %d images, dropped %d samples; the seed should exercise both",
			one.res.Images, one.res.DroppedSamples)
	}
	if one.res.Images != four.res.Images || one.res.ImageBytes != four.res.ImageBytes {
		t.Errorf("images %d/%v at GOMAXPROCS 1, %d/%v at 4",
			one.res.Images, one.res.ImageBytes, four.res.Images, four.res.ImageBytes)
	}
	if !bytes.Equal(one.model, four.model) {
		t.Errorf("model snapshot differs across encoder counts:\n%s\nvs\n%s", one.model, four.model)
	}
	if !bytes.Equal(one.log, four.log) {
		t.Errorf("model log differs across encoder counts:\n%s\nvs\n%s", one.log, four.log)
	}
	requireIdenticalStores(t, one.dir, four.dir)

	// Serial reference: the same frames, stored one AddImageAt at a time
	// in LiveRun's per-sample submission order, committed once.
	st, err := cinemastore.Open(filepath.Join(one.dir, "cinema"))
	if err != nil {
		t.Fatal(err)
	}
	order := map[string]int{"okubo_weiss": 0, "okubo_weiss_view0": 1, "okubo_weiss_view1": 2, "okubo_weiss_cores": 3}
	entries := st.Entries()
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Time != entries[j].Time {
			return entries[i].Time < entries[j].Time
		}
		return order[entries[i].Variable] < order[entries[j].Variable]
	})
	ref := t.TempDir()
	db, err := render.NewCinemaDB(filepath.Join(ref, "cinema"))
	if err != nil {
		t.Fatal(err)
	}
	var refBytes Bytes
	for _, e := range entries {
		f, err := os.Open(filepath.Join(one.dir, "cinema", e.File))
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		n, err := db.AddImageAt(img, e.Time, e.Phi, e.Theta, e.Variable)
		if err != nil {
			t.Fatal(err)
		}
		refBytes += Bytes(n)
	}
	if _, err := db.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	if len(entries) != one.res.Images || refBytes != one.res.ImageBytes {
		t.Errorf("serial reference stored %d images / %v, LiveRun %d / %v",
			len(entries), refBytes, one.res.Images, one.res.ImageBytes)
	}
	requireIdenticalStores(t, ref, one.dir)
}
