package core

import (
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/metrics"
)

// TestIndexReuseAcrossMineCalls: the bitmap index is built once per
// dataset — the first Mine pays the build, every later Mine
// on the same dataset reuses the cached index and records the reuse.
func TestIndexReuseAcrossMineCalls(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 11, Bachelors: 600, Doctorate: 200})

	rec1 := metrics.New()
	Mine(d, Config{MaxDepth: 2, Metrics: rec1})
	s1 := rec1.Snapshot()
	if s1.BitmapBuilds == 0 {
		t.Fatal("first Mine on a fresh dataset did not build the index")
	}
	if s1.BitmapIndexReuses != 0 {
		t.Fatalf("first Mine recorded %d index reuses, want 0", s1.BitmapIndexReuses)
	}
	if got := d.Index().Builds(); got != 1 {
		t.Fatalf("dataset index builds = %d after first Mine, want 1", got)
	}

	for i := 0; i < 3; i++ {
		rec := metrics.New()
		Mine(d, Config{MaxDepth: 2, Metrics: rec})
		s := rec.Snapshot()
		if s.BitmapBuilds != 0 {
			t.Fatalf("Mine %d rebuilt the index (%d bitmaps)", i+2, s.BitmapBuilds)
		}
		if s.BitmapIndexReuses != 1 {
			t.Fatalf("Mine %d recorded %d index reuses, want 1", i+2, s.BitmapIndexReuses)
		}
	}
	if got := d.Index().Builds(); got != 1 {
		t.Fatalf("dataset index builds = %d after repeated Mines, want 1", got)
	}
}

// TestArenaMetricsRecorded: a run over a dataset deep enough
// to recycle covers reports the arena's allocation discipline — released
// covers come back as reuses instead of fresh allocations.
func TestArenaMetricsRecorded(t *testing.T) {
	d := datagen.Manufacturing(datagen.ManufacturingConfig{
		Seed: 7, Population: 900, Failed: 250, Features: 10,
	})
	rec := metrics.New()
	Mine(d, Config{MaxDepth: 3, Metrics: rec})
	s := rec.Snapshot()
	if s.ArenaFresh == 0 {
		t.Fatal("bitmap run recorded no fresh arena allocations")
	}
	if s.ArenaReleased == 0 {
		t.Fatal("bitmap run never released a cover back to the arena")
	}
	if s.ArenaReused == 0 {
		t.Fatal("bitmap run never reused a released cover")
	}
}
