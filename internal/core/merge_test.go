package core

import (
	"testing"

	"sdadcs/internal/metrics"
	"sdadcs/internal/pattern"
)

// mergeChain builds n contiguous single-attribute spaces (i, i+1], each
// with identical group counts, over the given group sizes — a worst-case
// fixture for the bottom-up merge: every adjacent pair is similar and
// every union stays large and significant, so the whole chain collapses
// into one space.
func mergeChain(n int, counts, sizes []int, cfg *Config) []pattern.Contrast {
	spaces := make([]pattern.Contrast, 0, n)
	for i := 0; i < n; i++ {
		sup := pattern.CountsToSupports(counts, sizes)
		spaces = append(spaces, pattern.Contrast{
			Set:      pattern.NewItemset(pattern.RangeItem(0, float64(i), float64(i+1))),
			Supports: sup,
			Score:    cfg.Measure.Eval(sup),
		})
	}
	return spaces
}

// TestMergeChainCollapses: 12 contiguous similar spaces merge into the
// single full-range space, and the memoized rescan visits each distinct
// pair at most once. The regression: merge used to restart the full
// pairwise scan from scratch after every successful merge, recomputing
// chi-square tests for pairs already known unmergeable — O(n³) evaluations
// on merge-heavy windows.
func TestMergeChainCollapses(t *testing.T) {
	rec := metrics.New()
	cfg := Config{}
	cfg.defaults()
	sizes := []int{300, 300}
	r := &sdadRun{cfg: &cfg, sig: newSignificance(cfg.Alpha, len(sizes)), sizes: sizes, rec: rec}

	const n = 12
	got := r.merge(mergeChain(n, []int{20, 2}, sizes, &cfg))
	if len(got) != 1 {
		t.Fatalf("merge left %d spaces, want 1", len(got))
	}
	it, ok := got[0].Set.ItemOn(0)
	if !ok || it.Range.Lo != 0 || it.Range.Hi != n {
		t.Errorf("merged space is %s, want (0,%d]", got[0].Set.Key(), n)
	}
	wantCounts := []int{20 * n, 2 * n}
	for g, c := range got[0].Supports.Count {
		if c != wantCounts[g] {
			t.Errorf("merged counts %v, want %v", got[0].Supports.Count, wantCounts)
			break
		}
	}
	if r.stats.MergeOps != n-1 {
		t.Errorf("MergeOps = %d, want %d", r.stats.MergeOps, n-1)
	}
	// n originals plus n-1 unions ever exist; with failures memoized, no
	// pair is attempted twice, so attempts are bounded by C(2n-1, 2). The
	// former restart-everything scan exceeds this on chain-merge fixtures.
	maxAttempts := int64((2*n - 1) * (2*n - 2) / 2)
	if s := rec.Snapshot(); s.MergeAttempts > maxAttempts {
		t.Errorf("merge attempted %d pairs, want <= %d (each distinct pair once)",
			s.MergeAttempts, maxAttempts)
	}
}

// TestMergeKeepsDissimilarSplit: two contiguous spaces with significantly
// different group compositions must stay split (the similarity gate).
func TestMergeKeepsDissimilarSplit(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	sizes := []int{300, 300}
	r := &sdadRun{cfg: &cfg, sig: newSignificance(cfg.Alpha, len(sizes)), sizes: sizes}

	mk := func(lo, hi float64, counts []int) pattern.Contrast {
		sup := pattern.CountsToSupports(counts, sizes)
		return pattern.Contrast{
			Set:      pattern.NewItemset(pattern.RangeItem(0, lo, hi)),
			Supports: sup,
			Score:    cfg.Measure.Eval(sup),
		}
	}
	// Opposite compositions: chi-square similarity rejects the union.
	got := r.merge([]pattern.Contrast{
		mk(0, 1, []int{80, 5}),
		mk(1, 2, []int{5, 80}),
	})
	if len(got) != 2 {
		t.Fatalf("dissimilar spaces merged: %d spaces, want 2", len(got))
	}
	if r.stats.MergeOps != 0 {
		t.Errorf("MergeOps = %d, want 0", r.stats.MergeOps)
	}
}
