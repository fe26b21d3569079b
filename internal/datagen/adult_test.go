package datagen

import (
	"math"
	"testing"
)

func TestAdultShape(t *testing.T) {
	d := Adult(AdultConfig{Seed: 1})
	if d.Rows() != 8025+594 {
		t.Errorf("rows = %d", d.Rows())
	}
	if d.NumAttrs() != 13 {
		t.Errorf("attrs = %d, want 13", d.NumAttrs())
	}
	if got := len(d.ContinuousAttrs()); got != 5 {
		t.Errorf("continuous attrs = %d, want 5", got)
	}
	sizes := d.GroupSizes()
	if sizes[d.GroupIndex("Bachelors")] != 8025 || sizes[d.GroupIndex("Doctorate")] != 594 {
		t.Errorf("group sizes = %v", sizes)
	}
}

func TestAdultAgeStructure(t *testing.T) {
	d := Adult(AdultConfig{Seed: 2})
	doc := d.GroupIndex("Doctorate")
	bach := d.GroupIndex("Bachelors")
	ageAttr := d.AttrIndex("age")

	// Table 1 row 1: 18 < age <= 26 has support 0 (Doc) vs ~0.16 (Bach).
	s := suppIn(d, ageAttr, 18, 26)
	if s[doc] != 0 {
		t.Errorf("Doctorate support in (18,26] = %v, want 0", s[doc])
	}
	if math.Abs(s[bach]-0.16) > 0.03 {
		t.Errorf("Bachelors support in (18,26] = %v, want ~0.16", s[bach])
	}

	// Table 1 row 2: 47 < age <= 90: ~0.48 (Doc) vs ~0.22 (Bach).
	s = suppIn(d, ageAttr, 47, 90)
	if math.Abs(s[doc]-0.48) > 0.05 {
		t.Errorf("Doctorate support in (47,90] = %v, want ~0.48", s[doc])
	}
	if math.Abs(s[bach]-0.22) > 0.05 {
		t.Errorf("Bachelors support in (47,90] = %v, want ~0.22", s[bach])
	}
}

func TestAdultHoursInteraction(t *testing.T) {
	d := Adult(AdultConfig{Seed: 3})
	doc := d.GroupIndex("Doctorate")
	bach := d.GroupIndex("Bachelors")
	age := d.AttrIndex("age")
	hours := d.AttrIndex("hours_per_week")

	// Table 1 row 5: 49 < age <= 69 and 50 < hours <= 99:
	// ~0.13 (Doc) vs ~0.03 (Bach).
	box := d.All().FilterRange(age, 49, 69).FilterRange(hours, 50, 99)
	counts := box.GroupCounts()
	sizes := d.GroupSizes()
	sDoc := float64(counts[doc]) / float64(sizes[doc])
	sBach := float64(counts[bach]) / float64(sizes[bach])
	if math.Abs(sDoc-0.13) > 0.05 {
		t.Errorf("Doctorate interaction support = %v, want ~0.13", sDoc)
	}
	if math.Abs(sBach-0.03) > 0.02 {
		t.Errorf("Bachelors interaction support = %v, want ~0.03", sBach)
	}
	// The interaction must exceed the product of the marginals for
	// Doctorates (it is a real multivariate effect, not independence).
	mAge := suppIn(d, age, 49, 69)[doc]
	mHours := suppIn(d, hours, 50, 99)[doc]
	if sDoc <= mAge*mHours {
		t.Errorf("interaction %v should exceed product of marginals %v", sDoc, mAge*mHours)
	}
}

func TestAdultOccupation(t *testing.T) {
	d := Adult(AdultConfig{Seed: 4})
	doc := d.GroupIndex("Doctorate")
	bach := d.GroupIndex("Bachelors")
	occ := d.AttrIndex("occupation")
	sizes := d.GroupSizes()

	profCode := -1
	for c, v := range d.Domain(occ) {
		if v == "Prof-specialty" {
			profCode = c
		}
	}
	if profCode == -1 {
		t.Fatal("Prof-specialty missing from domain")
	}
	counts := d.All().Filter(func(r int) bool { return d.CatCode(occ, r) == profCode }).GroupCounts()
	sDoc := float64(counts[doc]) / float64(sizes[doc])
	sBach := float64(counts[bach]) / float64(sizes[bach])
	if math.Abs(sDoc-0.76) > 0.05 {
		t.Errorf("Doctorate Prof-specialty = %v, want ~0.76", sDoc)
	}
	if math.Abs(sBach-0.28) > 0.03 {
		t.Errorf("Bachelors Prof-specialty = %v, want ~0.28", sBach)
	}
}

func TestAdultCustomSizes(t *testing.T) {
	d := Adult(AdultConfig{Seed: 5, Bachelors: 100, Doctorate: 50})
	if d.Rows() != 150 {
		t.Errorf("rows = %d", d.Rows())
	}
}
