package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/pattern"
)

// sameContrast compares two contrasts bit-for-bit: itemset key, score,
// χ², p, and support vectors.
func sameContrast(a, b pattern.Contrast) bool {
	if a.Set.Key() != b.Set.Key() ||
		math.Float64bits(a.Score) != math.Float64bits(b.Score) ||
		math.Float64bits(a.ChiSq) != math.Float64bits(b.ChiSq) ||
		math.Float64bits(a.P) != math.Float64bits(b.P) ||
		len(a.Supports.Count) != len(b.Supports.Count) {
		return false
	}
	for g := range a.Supports.Count {
		if a.Supports.Count[g] != b.Supports.Count[g] || a.Supports.Size[g] != b.Supports.Size[g] {
			return false
		}
	}
	return true
}

// assertSameContrasts fails unless got and want hold the same contrasts in
// the same order, bit-for-bit.
func assertSameContrasts(t *testing.T, what string, got, want []pattern.Contrast) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns vs %d", what, len(got), len(want))
	}
	for j := range got {
		if !sameContrast(got[j], want[j]) {
			t.Fatalf("%s pattern %d: %s=%v vs %s=%v",
				what, j, got[j].Set.Key(), got[j].Score, want[j].Set.Key(), want[j].Score)
		}
	}
}

// TestIncrementalRemineBattery is the 50-seed × 200-append battery of the
// window re-mine over the incrementally maintained window (ring buffer,
// double-buffered snapshot, delta-seeded bitmap index): after every
// re-mine, Current() must be bit-identical — patterns, counts, scores, χ²,
// tie-breaks — to a fresh core.Mine of CurrentData(), and to a core.Mine
// of an allocating Snapshot() whose index is rebuilt from scratch. Traffic
// is fully random (shifting domains, varying group sizes, NaN readings),
// with re-mines during fill and after saturation.
func TestIncrementalRemineBattery(t *testing.T) {
	const (
		window  = 48
		appends = 200
	)
	for seed := int64(0); seed < 50; seed++ {
		cfg := Config{
			WindowSize: window,
			MineEvery:  window/4 + int(seed%5),
			Mining:     core.Config{MaxDepth: 2},
		}
		m, err := NewMonitor(testSchema(), cfg)
		if err != nil {
			t.Fatalf("seed %d: NewMonitor: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		checked := 0
		for i := 0; i < appends; i++ {
			cont, cat, group := randomRow(rng)
			mined := m.Mines()
			if _, err := m.Append(cont, cat, group); err != nil && !errors.Is(err, ErrWindowNotMineable) {
				t.Fatalf("seed %d append %d: %v", seed, i, err)
			}
			if m.Mines() == mined {
				continue
			}
			checked++
			at := fmt.Sprintf("seed %d append %d", seed, i)
			assertSameContrasts(t, at+" vs core.Mine(CurrentData())",
				m.Current(), core.Mine(m.CurrentData(), cfg.Mining).Contrasts)
			assertSameContrasts(t, at+" vs core.Mine(Snapshot())",
				m.Current(), core.Mine(m.Snapshot(), cfg.Mining).Contrasts)
		}
		if checked == 0 {
			t.Fatalf("seed %d: no re-mine ran", seed)
		}
	}
}
