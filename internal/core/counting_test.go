package core

import (
	"reflect"
	"testing"

	"sdadcs/internal/datagen"
	"sdadcs/internal/dataset"
	"sdadcs/internal/metrics"
)

// TestCountingGoldenEquality: counting supports with parallel per-level
// workers must give bit-identical results to a single worker — same
// contrasts in the same order, same supports, same scores and test
// statistics, same work counters — on both a mixed and a
// categorical-heavy dataset.
func TestCountingGoldenEquality(t *testing.T) {
	cases := []struct {
		name string
		d    *dataset.Dataset
		cfg  Config
	}{
		{
			name: "mixed/adult",
			d:    datagen.Adult(datagen.AdultConfig{Seed: 5, Bachelors: 1200, Doctorate: 300}),
			cfg:  Config{MaxDepth: 2},
		},
		{
			name: "categorical/manufacturing",
			d: datagen.Manufacturing(datagen.ManufacturingConfig{
				Seed: 5, Population: 1500, Failed: 400, Features: 12,
			}),
			cfg: Config{MaxDepth: 2},
		},
	}
	for _, tc := range cases {
		rs := Mine(tc.d, tc.cfg)
		for _, workers := range []int{2, 8} {
			cfg := tc.cfg
			cfg.Workers = workers
			rb := Mine(tc.d, cfg)

			if len(rs.Contrasts) != len(rb.Contrasts) {
				t.Errorf("%s workers=%d: 1 worker found %d contrasts, parallel %d",
					tc.name, workers, len(rs.Contrasts), len(rb.Contrasts))
				continue
			}
			for i := range rs.Contrasts {
				a, b := rs.Contrasts[i], rb.Contrasts[i]
				switch {
				case a.Set.Key() != b.Set.Key():
					t.Errorf("%s workers=%d contrast %d: %s vs %s",
						tc.name, workers, i, a.Set.Key(), b.Set.Key())
				case !reflect.DeepEqual(a.Supports, b.Supports):
					t.Errorf("%s workers=%d contrast %d (%s): supports %+v vs %+v",
						tc.name, workers, i, a.Set.Key(), a.Supports, b.Supports)
				case a.Score != b.Score || a.ChiSq != b.ChiSq || a.P != b.P:
					t.Errorf("%s workers=%d contrast %d (%s): score/chisq/p (%v,%v,%v) vs (%v,%v,%v)",
						tc.name, workers, i, a.Set.Key(),
						a.Score, a.ChiSq, a.P, b.Score, b.ChiSq, b.P)
				}
			}
			if !reflect.DeepEqual(rs.Meaning, rb.Meaning) {
				t.Errorf("%s workers=%d: meaningfulness classifications differ",
					tc.name, workers)
			}
			if rs.Stats.PartitionsEvaluated != rb.Stats.PartitionsEvaluated {
				t.Errorf("%s workers=%d: partitions evaluated %d (1 worker) vs %d (parallel)",
					tc.name, workers,
					rs.Stats.PartitionsEvaluated, rb.Stats.PartitionsEvaluated)
			}
		}
	}
}

// TestCountingAutoIsBitmap: a default-config mine counts supports through
// the bitmap index, observable through the instrumentation counters.
func TestCountingAutoIsBitmap(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 3, Bachelors: 400, Doctorate: 100})
	rec := metrics.New()
	Mine(d, Config{MaxDepth: 2, Metrics: rec})
	if s := rec.Snapshot(); s.BitmapBuilds == 0 {
		t.Error("default config did not build a bitmap index")
	}
}

// TestCountingBitmapMetrics: a mixed mining run exercises all four
// counters — index builds, cover intersections, popcount passes, and lazy
// row materializations (SDAD-CS box interiors need raw rows for medians).
func TestCountingBitmapMetrics(t *testing.T) {
	d := datagen.Adult(datagen.AdultConfig{Seed: 3, Bachelors: 800, Doctorate: 200})
	rec := metrics.New()
	Mine(d, Config{MaxDepth: 2, Metrics: rec})
	s := rec.Snapshot()
	if s.BitmapBuilds == 0 {
		t.Error("no bitmap builds recorded")
	}
	if s.BitmapAndOps == 0 {
		t.Error("no bitmap AND ops recorded")
	}
	if s.BitmapPopcounts == 0 {
		t.Error("no popcount passes recorded")
	}
	if s.BitmapLazyRows == 0 {
		t.Error("no lazy materializations recorded on a mixed dataset")
	}

}
