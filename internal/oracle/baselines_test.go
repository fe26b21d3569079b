package oracle

import (
	"testing"

	"sdadcs/internal/dataset"
	"sdadcs/internal/mvd"
	"sdadcs/internal/pattern"
	"sdadcs/internal/stucco"
	"sdadcs/internal/subgroup"
)

// measureCycle rotates every registered interest measure through the
// batteries so each seed exercises a different scoring path — including the
// growth-rate and contrast-rule measures this oracle is the reference for.
var measureCycle = []pattern.Measure{
	pattern.SupportDiff,
	pattern.PurityRatio,
	pattern.SurprisingMeasure,
	pattern.WRAccMeasure,
	pattern.GrowthRateMeasure,
	pattern.ContrastRuleMeasure,
}

// TestOracleSTUCCO holds production STUCCO to the transliterated reference
// (exact, counters, top-k prefix) and runs its
// metamorphic battery at every seed.
func TestOracleSTUCCO(t *testing.T) {
	seeds := seedCount(t, 50)
	for seed := int64(0); seed < int64(seeds); seed++ {
		shape := Shape(seed % int64(numShapes))
		d := Generate(seed)

		measure := measureCycle[seed%int64(len(measureCycle))]
		failDivergences(t, seed, shape, CheckSTUCCO(d, stucco.Config{Measure: measure}))
		// Tight bound: the generated datasets rarely exceed the default
		// top-100, so a small k is what actually exercises truncation.
		failDivergences(t, seed, shape, CheckSTUCCO(d, stucco.Config{Measure: measure, TopK: 3}))

		exact := stucco.Config{Measure: measure, TopK: stucco.TopKUnbounded, Workers: 1}
		failDivergences(t, seed, shape, CheckSTUCCOBitEquality(d, exact, seed+1))
		failDivergences(t, seed, shape, CheckSTUCCOReorder(d, exact))
		failDivergences(t, seed, shape, CheckSTUCCODuplication(d, exact, 2))

		if t.Failed() {
			t.Fatalf("stopping at first divergent seed %d (%s)", seed, shape)
		}
	}
}

// TestOracleSubgroup does the same for the beam search.
func TestOracleSubgroup(t *testing.T) {
	seeds := seedCount(t, 50)
	for seed := int64(0); seed < int64(seeds); seed++ {
		shape := Shape(seed % int64(numShapes))
		d := Generate(seed)

		measure := measureCycle[seed%int64(len(measureCycle))]
		failDivergences(t, seed, shape, CheckSubgroup(d, subgroup.Config{Measure: measure}))
		// Tight bounds: the default beam (100) and top-k (100) are wider
		// than anything the generator produces, so beam truncation and
		// bounded selection only fire under deliberately small limits.
		failDivergences(t, seed, shape, CheckSubgroup(d,
			subgroup.Config{Measure: measure, BeamWidth: 3, TopK: 5, Depth: 3}))

		exact := subgroup.Config{Measure: measure, TopK: subgroup.TopKUnbounded, Workers: 1}
		failDivergences(t, seed, shape, CheckSubgroupBitEquality(d, exact, seed+1))
		failDivergences(t, seed, shape, CheckSubgroupReorder(d, exact))
		failDivergences(t, seed, shape, CheckSubgroupDuplication(d, exact, 2))

		if t.Failed() {
			t.Fatalf("stopping at first divergent seed %d (%s)", seed, shape)
		}
	}
}

// TestOracleEntropy checks the MDLP cuts against the reference, the binned
// pipeline against the STUCCO oracle, and the discretizer's invariances.
func TestOracleEntropy(t *testing.T) {
	seeds := seedCount(t, 50)
	for seed := int64(0); seed < int64(seeds); seed++ {
		shape := Shape(seed % int64(numShapes))
		d := Generate(seed)

		failDivergences(t, seed, shape, CheckEntropy(d))
		failDivergences(t, seed, shape, CheckEntropyInvariances(d, seed+1, 2))

		if t.Failed() {
			t.Fatalf("stopping at first divergent seed %d (%s)", seed, shape)
		}
	}
}

// TestOracleBaselinesPureTypes pins the two dataset shapes the seeded
// generator never produces — only categorical attributes, and only one
// continuous attribute — against every baseline's reference. These are the
// degenerate ends of the condition enumeration (no interval ladder at all,
// and no categorical items at all).
func TestOracleBaselinesPureTypes(t *testing.T) {
	pureCat, err := dataset.NewBuilder("pure-cat").
		AddCategorical("c0", []string{"a", "a", "b", "b", "a", "b", "a", "a", "b", "a", "b", "b"}).
		AddCategorical("c1", []string{"x", "y", "x", "y", "x", "x", "y", "x", "y", "y", "x", "y"}).
		SetGroups([]string{"A", "A", "B", "B", "A", "B", "A", "A", "B", "A", "B", "B"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 40)
	labels := make([]string, 40)
	for i := range vals {
		vals[i] = float64(i % 7)
		labels[i] = "A"
		if i%2 == 0 {
			vals[i] += 5
			labels[i] = "B"
		}
	}
	pureCont, err := dataset.NewBuilder("pure-cont").
		AddContinuous("x", vals).
		SetGroups(labels).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{pureCat, pureCont} {
		failDivergences(t, -1, ShapeMixed, CheckSTUCCO(d, stucco.Config{}))
		failDivergences(t, -1, ShapeMixed, CheckSubgroup(d, subgroup.Config{}))
		failDivergences(t, -1, ShapeMixed, CheckMVD(d, mvd.Config{BinSize: 5}))
		failDivergences(t, -1, ShapeMixed, CheckEntropy(d))
		if t.Failed() {
			t.Fatalf("pure-type dataset %s diverged", d.Name())
		}
	}
}

// TestOracleMVD checks MVD cuts and the pairs counter against the
// reference, the binned pipeline against the STUCCO oracle, and the
// discretizer's invariances. The generator produces 40–120 rows, so the
// production default bin size (100) would mostly collapse to a single bin;
// BinSize 10 exercises real merging.
func TestOracleMVD(t *testing.T) {
	seeds := seedCount(t, 50)
	for seed := int64(0); seed < int64(seeds); seed++ {
		shape := Shape(seed % int64(numShapes))
		d := Generate(seed)
		cfg := mvd.Config{BinSize: 10}

		failDivergences(t, seed, shape, CheckMVD(d, cfg))
		failDivergences(t, seed, shape, CheckMVDInvariances(d, cfg, seed+1))

		if t.Failed() {
			t.Fatalf("stopping at first divergent seed %d (%s)", seed, shape)
		}
	}
}
