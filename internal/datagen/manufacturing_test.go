package datagen

import (
	"math"
	"testing"
)

func TestManufacturingShape(t *testing.T) {
	d := Manufacturing(ManufacturingConfig{Seed: 1})
	if d.Rows() != 2500 {
		t.Errorf("rows = %d", d.Rows())
	}
	if d.NumAttrs() != 40 {
		t.Errorf("attrs = %d, want 40 (default)", d.NumAttrs())
	}
	if d.NumGroups() != 2 {
		t.Errorf("groups = %d", d.NumGroups())
	}
}

func TestManufacturingSignature(t *testing.T) {
	d := Manufacturing(ManufacturingConfig{Seed: 2, Population: 8000, Failed: 2000})
	pop := d.GroupIndex("Population")
	fail := d.GroupIndex("Failed")
	sizes := d.GroupSizes()

	supp := func(attr int, value string) (float64, float64) {
		code := -1
		for c, v := range d.Domain(attr) {
			if v == value {
				code = c
			}
		}
		if code < 0 {
			t.Fatalf("value %q not in domain of attr %d", value, attr)
		}
		counts := d.All().Filter(func(r int) bool { return d.CatCode(attr, r) == code }).GroupCounts()
		return float64(counts[pop]) / float64(sizes[pop]),
			float64(counts[fail]) / float64(sizes[fail])
	}

	// Table 7: CAM entity SCE 0.28 -> 0.55.
	p, f := supp(d.AttrIndex("CAM_entity"), "SCE")
	if math.Abs(p-0.28) > 0.03 || math.Abs(f-0.55) > 0.04 {
		t.Errorf("SCE supports = %v -> %v, want 0.28 -> 0.55", p, f)
	}
	// Placement tool JVF mirrors the module exactly.
	p2, f2 := supp(d.AttrIndex("placement_tool"), "JVF")
	if p2 != p || f2 != f {
		t.Errorf("JVF should equal SCE supports: %v/%v vs %v/%v", p2, f2, p, f)
	}
	// Rear row 0.34 -> 0.50.
	p, f = supp(d.AttrIndex("CAM_row_location"), "Rear")
	if math.Abs(p-0.34) > 0.03 || math.Abs(f-0.50) > 0.04 {
		t.Errorf("Rear supports = %v -> %v, want 0.34 -> 0.50", p, f)
	}

	// Continuous bins from Table 7.
	rangeSupp := func(name string, lo, hi float64) (float64, float64) {
		attr := d.AttrIndex(name)
		counts := d.All().FilterRange(attr, lo, hi).GroupCounts()
		return float64(counts[pop]) / float64(sizes[pop]),
			float64(counts[fail]) / float64(sizes[fail])
	}
	p, f = rangeSupp("CAM_time_above_liquidus", 92.0373, 92.8009)
	if math.Abs(p-0.04) > 0.02 || math.Abs(f-0.21) > 0.03 {
		t.Errorf("time-above-liquidus supports = %v -> %v, want 0.04 -> 0.21", p, f)
	}
	p, f = rangeSupp("CAM_peak_temperature", 254.1609, 256.8191)
	if math.Abs(p-0.24) > 0.03 || math.Abs(f-0.37) > 0.04 {
		t.Errorf("peak-temperature supports = %v -> %v, want 0.24 -> 0.37", p, f)
	}
}

func TestManufacturingFeatureScaling(t *testing.T) {
	d := Manufacturing(ManufacturingConfig{Seed: 3, Population: 200, Failed: 50, Features: 120})
	if d.NumAttrs() != 120 {
		t.Errorf("attrs = %d, want 120", d.NumAttrs())
	}
	// Rough split: >= 20 continuous attributes at 120 features.
	if got := len(d.ContinuousAttrs()); got < 20 {
		t.Errorf("continuous attrs = %d, want >= 20", got)
	}
}

func TestManufacturingDeterminism(t *testing.T) {
	a := Manufacturing(ManufacturingConfig{Seed: 9, Population: 100, Failed: 30})
	b := Manufacturing(ManufacturingConfig{Seed: 9, Population: 100, Failed: 30})
	for r := 0; r < a.Rows(); r++ {
		if a.Cont(a.AttrIndex("CAM_peak_temperature"), r) !=
			b.Cont(b.AttrIndex("CAM_peak_temperature"), r) {
			t.Fatal("same seed should reproduce identical data")
		}
	}
}
