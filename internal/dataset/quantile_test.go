package dataset

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortQuantile is the reference the selection-based Quantile must match
// bit for bit: sort a copy of the finite values and index it at
// int(q·(n−1)), clamped at both ends.
func sortQuantile(vals []float64, q float64) float64 {
	var finite []float64
	for _, x := range vals {
		if x == x {
			finite = append(finite, x)
		}
	}
	if len(finite) == 0 {
		return 0
	}
	sort.Float64s(finite)
	switch {
	case q <= 0:
		return finite[0]
	case q >= 1:
		return finite[len(finite)-1]
	default:
		return finite[int(q*float64(len(finite)-1))]
	}
}

// quantileColumn builds a one-column dataset over vals (two NaN padding
// rows keep it buildable when vals is empty; Quantile skips them) and
// returns it with a copy of the column as stored.
func quantileColumn(t testing.TB, vals []float64) (*Dataset, []float64) {
	t.Helper()
	col := append(append([]float64(nil), vals...), math.NaN(), math.NaN())
	groups := make([]string, len(col))
	for i := range groups {
		groups[i] = []string{"A", "B"}[i%2]
	}
	d, err := NewBuilder("q").AddContinuous("x", col).SetGroups(groups).Build()
	if err != nil {
		t.Fatal(err)
	}
	return d, append([]float64(nil), d.ContColumn(0)...)
}

// checkQuantileVsSort compares Quantile with the sort reference on every
// listed q, over both the full view and a strided sub-view.
func checkQuantileVsSort(t testing.TB, vals []float64, qs []float64) {
	t.Helper()
	d, col := quantileColumn(t, vals)
	var odd []int
	var oddVals []float64
	for r := 1; r < len(col); r += 2 {
		odd = append(odd, r)
		oddVals = append(oddVals, col[r])
	}
	for _, q := range qs {
		got, want := d.All().Quantile(0, q), sortQuantile(col, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d q=%v: Quantile = %v, sort gives %v (values %v)", len(vals), q, got, want, vals)
		}
		got, want = d.Restrict(odd).Quantile(0, q), sortQuantile(oddVals, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d q=%v, odd rows: Quantile = %v, sort gives %v", len(vals), q, got, want)
		}
	}
}

// randomColumn draws n values of one of several shapes: distinct,
// heavily tied on a small grid, NaN-mixed, sorted, reversed or constant.
func randomColumn(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	shape := rng.Intn(6)
	for i := range vals {
		switch shape {
		case 0:
			vals[i] = rng.NormFloat64()
		case 1:
			vals[i] = float64(rng.Intn(4)) - 1 // ties, and zeros of both signs below
		case 2:
			if rng.Intn(3) == 0 {
				vals[i] = math.NaN()
			} else {
				vals[i] = float64(rng.Intn(6))
			}
		case 3:
			vals[i] = float64(i / 3)
		case 4:
			vals[i] = float64(n - i)
		default:
			vals[i] = 7
		}
		if vals[i] == 0 && rng.Intn(2) == 0 {
			vals[i] = math.Copysign(0, -1)
		}
	}
	return vals
}

func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 64; n++ {
		for trial := 0; trial < 8; trial++ {
			qs := []float64{0, 0.5, 1, rng.Float64(), rng.Float64()}
			checkQuantileVsSort(t, randomColumn(rng, n), qs)
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 65 + rng.Intn(3000)
		qs := []float64{0, 0.5, 1, rng.Float64()}
		checkQuantileVsSort(t, randomColumn(rng, n), qs)
	}
}

func TestSelectEveryRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(1 + n/4))
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for k := 0; k < n; k++ {
			scratch := append([]float64(nil), vals...)
			if got := Select(scratch, k); got != sorted[k] {
				t.Fatalf("Select(%v, %d) = %v, want %v", vals, k, got, sorted[k])
			}
		}
	}
}

func TestAddContinuousCanonicalizesNegativeZero(t *testing.T) {
	d := NewBuilder("z").
		AddContinuous("x", []float64{math.Copysign(0, -1), 0, -1, math.NaN()}).
		SetGroups([]string{"A", "B", "A", "B"}).
		MustBuild()
	for row, x := range d.ContColumn(0) {
		if x == 0 && math.Signbit(x) {
			t.Errorf("row %d kept -0", row)
		}
	}
	if got := d.All().Quantile(0, 0.5); got != 0 || math.Signbit(got) {
		t.Errorf("median = %v (signbit %v), want +0", got, math.Signbit(got))
	}
}

func TestGroupSizesCachedCopy(t *testing.T) {
	d := sample(t)
	sizes := d.GroupSizes()
	if sizes[0] != 3 || sizes[1] != 3 {
		t.Fatalf("GroupSizes = %v, want [3 3]", sizes)
	}
	sizes[0] = 99
	if got := d.GroupSizes(); got[0] != 3 {
		t.Errorf("GroupSizes shares its cache with callers: %v", got)
	}
	sub := Materialize(d.Restrict([]int{0, 1, 2}))
	if got := sub.GroupSizes(); got[0] != 2 || got[1] != 1 {
		t.Errorf("materialized GroupSizes = %v, want [2 1]", got)
	}
}
