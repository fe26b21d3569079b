package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdadcs/internal/dataset"
)

// row is one appended stream row, kept in arrival order by the test.
type row struct {
	cont  []float64
	cat   []string
	group string
}

// buildRows is the reference Snapshot: a dataset.Builder build of rows,
// or nil when the build fails.
func buildRows(schema Schema, rows []row) *dataset.Dataset {
	b := dataset.NewBuilder(schema.Name)
	for i, name := range schema.Continuous {
		col := make([]float64, len(rows))
		for r, x := range rows {
			col[r] = x.cont[i]
		}
		b.AddContinuous(name, col)
	}
	for i, name := range schema.Categorical {
		col := make([]string, len(rows))
		for r, x := range rows {
			col[r] = x.cat[i]
		}
		b.AddCategorical(name, col)
	}
	groups := make([]string, len(rows))
	for r, x := range rows {
		groups[r] = x.group
	}
	b.SetGroups(groups)
	d, err := b.Build()
	if err != nil {
		return nil
	}
	return d
}

// sameDataset reports the first difference between two datasets: shape,
// attributes, float bits, categorical codes, domains (order included),
// group names and group codes. It returns "" when they are identical.
func sameDataset(got, want *dataset.Dataset) string {
	if got.Rows() != want.Rows() || got.NumAttrs() != want.NumAttrs() {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.Rows(), got.NumAttrs(), want.Rows(), want.NumAttrs())
	}
	for a := 0; a < want.NumAttrs(); a++ {
		if got.Attr(a) != want.Attr(a) {
			return fmt.Sprintf("attr %d is %+v, want %+v", a, got.Attr(a), want.Attr(a))
		}
		if want.Attr(a).Kind == dataset.Categorical {
			if !slices.Equal(got.Domain(a), want.Domain(a)) {
				return fmt.Sprintf("attr %d domain %q, want %q", a, got.Domain(a), want.Domain(a))
			}
			if !slices.Equal(got.CatCodes(a), want.CatCodes(a)) {
				return fmt.Sprintf("attr %d codes %v, want %v", a, got.CatCodes(a), want.CatCodes(a))
			}
			continue
		}
		for r := 0; r < want.Rows(); r++ {
			if g, w := got.Cont(a, r), want.Cont(a, r); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("attr %d row %d is %v, want %v", a, r, g, w)
			}
		}
	}
	if !slices.Equal(got.GroupNames(), want.GroupNames()) {
		return fmt.Sprintf("group names %q, want %q", got.GroupNames(), want.GroupNames())
	}
	if !slices.Equal(got.GroupCodes(), want.GroupCodes()) {
		return fmt.Sprintf("group codes %v, want %v", got.GroupCodes(), want.GroupCodes())
	}
	return ""
}

// TestSnapshotIsLastWindow pins the ring order independently of mining:
// after every append, Snapshot must equal a Builder build of the last
// min(n, WindowSize) appended rows, and be nil exactly when that build
// fails. The traffic has NaN and signed-zero readings and single-group
// stretches longer than the smaller windows, and every window size runs
// through its fill phase and at least two full wraps.
func TestSnapshotIsLastWindow(t *testing.T) {
	for _, window := range []int{1, 3, 41, 130} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			m, err := NewMonitor(testSchema(), Config{WindowSize: window, MineEvery: window})
			if err != nil {
				t.Fatal(err)
			}
			m.cfg.MineEvery = 1 << 30 // this test is about snapshots, not re-mines
			rng := rand.New(rand.NewSource(int64(window)))
			var rows []row
			nils, stretch, stretchGroup := 0, 0, ""
			for n := 1; n <= 3*window+7; n++ {
				cont, cat, group := randomRow(rng)
				switch rng.Intn(10) {
				case 0:
					cont[0] = 0
				case 1:
					cont[0] = math.Copysign(0, -1)
				case 2:
					cont[0] = math.NaN()
				}
				if stretch == 0 && rng.Intn(8) == 0 {
					stretch, stretchGroup = 1+rng.Intn(window+4), group
				}
				if stretch > 0 {
					group = stretchGroup
					stretch--
				}
				rows = append(rows, row{cont, cat, group})
				if _, err := m.Append(cont, cat, group); err != nil {
					t.Fatalf("append %d: %v", n, err)
				}
				got := m.Snapshot()
				want := buildRows(m.schema, rows[max(0, n-window):])
				if (got == nil) != (want == nil) {
					t.Fatalf("append %d: Snapshot nil = %v, reference build nil = %v", n, got == nil, want == nil)
				}
				if want == nil {
					nils++
					continue
				}
				if diff := sameDataset(got, want); diff != "" {
					t.Fatalf("append %d: %s", n, diff)
				}
			}
			// A one-row window is never mineable; every larger one must
			// have seen both kinds of window.
			if nils == 0 || (window > 1 && nils == len(rows)) {
				t.Fatalf("%d of %d snapshots were nil: the traffic must have mineable and single-group windows", nils, len(rows))
			}
		})
	}
}
