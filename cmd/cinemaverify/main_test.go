package main

import (
	"image"
	"os"
	"path/filepath"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/render"
)

// TestVerifyAfterFailedConcurrentWrite is the pipelined writer's failure
// path end to end: a sample whose middle frame cannot be written commits
// only the frames before it, the frames written after it concurrently
// are quarantined by RepairOpen, and the store then verifies clean.
func TestVerifyAfterFailedConcurrentWrite(t *testing.T) {
	dir := t.TempDir()
	db, err := render.NewCinemaDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := render.NewPipelinedCinemaWriter(db)
	defer w.Close()
	if err := os.Mkdir(filepath.Join(dir, "t000000000002_w.png"), 0o755); err != nil {
		t.Fatal(err)
	}
	frame := image.NewRGBA(image.Rect(0, 0, 16, 8))
	for i := 1; i <= 4; i++ {
		for p := range frame.Pix {
			frame.Pix[p] = byte(i * 40)
		}
		if err := w.Submit(frame, float64(i), 0, 0, "w"); err != nil {
			t.Fatal(err)
		}
	}
	if entries, err := w.Flush(); err == nil || len(entries) != 1 {
		t.Fatalf("Flush = (%d entries, %v), want 1 entry and the write error", len(entries), err)
	}
	if _, err := db.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := cinemastore.RepairOpen(dir); err != nil || len(rep.Quarantined) != 2 {
		t.Fatalf("RepairOpen = %+v, %v; want the two unindexed frames quarantined", rep, err)
	}
	if !verifyStore(dir, 10) {
		t.Fatal("cinemaverify rejects the repaired store")
	}
}
