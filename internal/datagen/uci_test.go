package datagen

import (
	"math"
	"testing"

	"sdadcs/internal/dataset"
	"sdadcs/internal/stats"
)

func TestTable2SpecsShape(t *testing.T) {
	specs := Table2Specs(1)
	if len(specs) != 10 {
		t.Fatalf("specs = %d, want 10", len(specs))
	}
	// Spot-check against Table 2 (scaled entries documented in uci.go).
	byName := map[string]UCISpec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	if s := byName["BreastCancer"]; s.N0 != 458 || s.N1 != 241 || s.Cont != 10 || s.Cat != 0 {
		t.Errorf("BreastCancer spec = %+v", s)
	}
	if s := byName["Spambase"]; s.Cont != 57 {
		t.Errorf("Spambase cont = %d, want 57", s.Cont)
	}
	if s := byName["Adult"]; s.Cat+s.Cont != 13 || s.Cont != 5 {
		t.Errorf("Adult feature counts = %d/%d", s.Cat+s.Cont, s.Cont)
	}
}

func TestUCIDatasetShapes(t *testing.T) {
	for _, spec := range Table2Specs(7) {
		d := UCIDataset(spec)
		if d.Rows() != spec.N0+spec.N1 {
			t.Errorf("%s: rows = %d, want %d", spec.Name, d.Rows(), spec.N0+spec.N1)
		}
		if got := len(d.ContinuousAttrs()); got != spec.Cont {
			t.Errorf("%s: continuous = %d, want %d", spec.Name, got, spec.Cont)
		}
		if got := len(d.CategoricalAttrs()); got != spec.Cat {
			t.Errorf("%s: categorical = %d, want %d", spec.Name, got, spec.Cat)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestPlantedStrengthCalibration(t *testing.T) {
	// The strongest informative feature's median-split support difference
	// should be close to the spec's Strength.
	spec := UCISpec{
		Name: "cal", Group0: "a", Group1: "b",
		N0: 4000, N1: 4000, Cont: 5, Strength: 0.6, Seed: 11,
	}
	d := Planted(spec)
	attr := d.AttrIndex("inf_0")
	if attr < 0 {
		t.Fatal("inf_0 missing")
	}
	med := d.All().Median(attr)
	s := suppIn(d, attr, math.Inf(-1), med)
	diff := math.Abs(s[0] - s[1])
	if math.Abs(diff-0.6) > 0.06 {
		t.Errorf("median-split diff = %v, want ~0.6", diff)
	}
}

func TestPlantedPureRegion(t *testing.T) {
	spec := UCISpec{
		Name: "p", Group0: "a", Group1: "b",
		N0: 1000, N1: 1000, Cont: 5, Strength: 0.8, Seed: 12,
	}
	d := Planted(spec)
	attr := d.AttrIndex("pure")
	if attr < 0 {
		t.Fatal("pure feature missing")
	}
	g1 := d.GroupIndex("b")
	low := d.All().FilterRange(attr, math.Inf(-1), 0.75).GroupCounts()
	if low[g1] != 0 {
		t.Errorf("group b rows below 0.75 = %d, want 0 (pure region)", low[g1])
	}
}

func TestPlantedXORInteraction(t *testing.T) {
	spec := UCISpec{
		Name: "x", Group0: "a", Group1: "b",
		N0: 3000, N1: 3000, Cont: 6, Strength: 0.7, Seed: 13,
	}
	d := Planted(spec)
	xa, xb := d.AttrIndex("xor_a"), d.AttrIndex("xor_b")
	if xa < 0 || xb < 0 {
		t.Fatal("xor features missing")
	}
	// Marginals are uninformative…
	for _, attr := range []int{xa, xb} {
		s := suppIn(d, attr, math.Inf(-1), 0.5)
		if math.Abs(s[0]-s[1]) > 0.06 {
			t.Errorf("xor marginal diff = %v, want ~0", math.Abs(s[0]-s[1]))
		}
	}
	// …but the low-low quadrant strongly favors group a.
	quad := d.All().FilterRange(xa, math.Inf(-1), 0.5).FilterRange(xb, math.Inf(-1), 0.5)
	counts := quad.GroupCounts()
	sizes := d.GroupSizes()
	diff := math.Abs(float64(counts[0])/float64(sizes[0]) - float64(counts[1])/float64(sizes[1]))
	if diff < 0.2 {
		t.Errorf("xor quadrant diff = %v, want strong contrast", diff)
	}
}

func TestPlantedRedundantFeature(t *testing.T) {
	spec := UCISpec{
		Name: "r", Group0: "a", Group1: "b",
		N0: 1000, N1: 1000, Cont: 8, Strength: 0.5, Seed: 14,
	}
	d := Planted(spec)
	inf0 := d.AttrIndex("inf_0")
	red := d.AttrIndex("redundant")
	if inf0 < 0 || red < 0 {
		t.Fatal("features missing")
	}
	if corr(d, inf0, red) < 0.98 {
		t.Errorf("redundant correlation = %v, want ~1", corr(d, inf0, red))
	}
}

func TestPlantedCategoricalSkew(t *testing.T) {
	spec := UCISpec{
		Name: "c", Group0: "a", Group1: "b",
		N0: 3000, N1: 3000, Cat: 4, Cont: 2, Strength: 0.8, Seed: 15,
	}
	d := Planted(spec)
	attr := d.AttrIndex("cat_0")
	if attr < 0 {
		t.Fatal("cat_0 missing")
	}
	code := -1
	for c, v := range d.Domain(attr) {
		if v == "v0" {
			code = c
		}
	}
	if code < 0 {
		t.Fatal("v0 not in domain")
	}
	counts := d.All().Filter(func(r int) bool { return d.CatCode(attr, r) == code }).GroupCounts()
	sizes := d.GroupSizes()
	sA := float64(counts[d.GroupIndex("a")]) / float64(sizes[d.GroupIndex("a")])
	sB := float64(counts[d.GroupIndex("b")]) / float64(sizes[d.GroupIndex("b")])
	if sB-sA < 0.15 {
		t.Errorf("categorical skew: a=%v b=%v, want b >> a", sA, sB)
	}
	// The chi-square test must flag the association.
	res, err := stats.ChiSquare2xK(counts, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.05) {
		t.Error("planted categorical skew should be significant")
	}
}

func TestShiftForDiff(t *testing.T) {
	if shiftForDiff(0) != 0 {
		t.Error("zero diff should give zero shift")
	}
	// Round trip: d -> shift -> implied diff.
	for _, d := range []float64{0.2, 0.5, 0.86} {
		s := shiftForDiff(d)
		implied := 2*stats.NormalCDF(s/2) - 1
		if math.Abs(implied-d) > 1e-9 {
			t.Errorf("round trip for %v: %v", d, implied)
		}
	}
	if math.IsInf(shiftForDiff(1.5), 1) {
		t.Error("overlarge diff should clamp, not blow up")
	}
}

func TestAllUCI(t *testing.T) {
	ds := AllUCI(3)
	if len(ds) != 10 {
		t.Fatalf("datasets = %d", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name()] = true
	}
	if !names["Adult"] || !names["Covtype"] {
		t.Error("missing expected dataset names")
	}
}

// Keep dataset import used even if tests above change.
var _ = dataset.Categorical
